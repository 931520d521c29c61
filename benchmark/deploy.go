package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/partix"
	"partix/internal/wire"
)

// node is one storage node: an engine served by a wire.Server on a
// loopback TCP port, reached through its own wire.Client — the objects a
// partixd process and a coordinator would hold, inside one process.
type node struct {
	name string
	db   *engine.DB
	srv  *wire.Server
	cli  *wire.Client
}

// deployment is a set of nodes plus the coordinator that queries them.
type deployment struct {
	dir   string
	nodes []*node
	sys   *partix.System
}

// deploy starts n nodes named n0..n(n-1) with their store files under dir
// and a coordinator connected to all of them. Every option is the partixd
// or partix.NewSystem default (compiled executor on, tree cache off, WAL
// and fsync on, plan cache 128, planner statistics on, result cache off,
// telemetry on) except SetConcurrent(true), which every deployment over
// remote nodes sets.
func deploy(dir string, n int) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, sys: partix.NewSystem(cluster.GigabitEthernet)}
	d.sys.SetConcurrent(true)
	for i := 0; i < n; i++ {
		nd, err := startNode(fmt.Sprintf("n%d", i), filepath.Join(dir, fmt.Sprintf("n%d.db", i)))
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, nd)
		d.sys.AddNode(nd.cli)
	}
	return d, nil
}

func startNode(name, path string) (*node, error) {
	db, err := engine.Open(path, engine.Options{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	// partixd runs every node with a flight recorder (slow threshold
	// 100ms) and a workload profiler; they are part of the served path.
	rec := obs.NewFlightRecorder(0)
	rec.SetSampleEvery(1)
	rec.SetSlowThreshold(100 * time.Millisecond)
	srv := wire.NewServerWith(db, nil, wire.ServerOptions{
		IdleTimeout: 5 * time.Minute,
		Recorder:    rec,
		Profiler:    obs.NewWorkloadProfiler(0),
	})
	go srv.Serve(lis) // returns once srv.Close closes the listener
	cli, err := wire.DialWith(name, lis.Addr().String(), wire.ClientOptions{})
	if err != nil {
		srv.Close()
		db.Close()
		return nil, err
	}
	return &node{name: name, db: db, srv: srv, cli: cli}, nil
}

// node returns the node with the given name, or nil.
func (d *deployment) node(name string) *node {
	for _, nd := range d.nodes {
		if nd.name == name {
			return nd
		}
	}
	return nil
}

// close stops clients, servers and engines, then removes the store files.
// Server.Close waits for its handlers, so no goroutine outlives it.
func (d *deployment) close() error {
	var errs []error
	for _, nd := range d.nodes {
		errs = append(errs, nd.cli.Close(), nd.srv.Close(), nd.db.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// checkpoint forces a catalog checkpoint on every node, so the store and
// WAL file sizes no longer depend on where the last size-triggered
// checkpoint happened to fall.
func (d *deployment) checkpoint() error {
	for _, nd := range d.nodes {
		if err := nd.db.Sync(); err != nil {
			return fmt.Errorf("checkpoint %s: %w", nd.name, err)
		}
	}
	return nil
}

// fileBytes sums the sizes of every node's store and WAL files.
func (d *deployment) fileBytes() (int64, error) {
	var total int64
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
