package wire

import (
	"bytes"
	"sync"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/obs"
	"partix/internal/storage"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// LocalNode is the in-process driver of the simulated cluster and tests:
// a node Server minus the socket. A query runs the stream a remote node
// runs (Server.stream) at the default frame sizes, and each frame goes to
// the decode a Client runs on received frames (decodeFrame). So it
// answers as over TCP: stored nodes come back as storage.DeferredNodes,
// and a traced query reports the same steps.
type LocalNode struct {
	name string
	srv  *Server
	// origins recycles the engine.Origins each sub-query streams through
	// (a TCP connection keeps one for its streams the same way).
	origins sync.Pool
}

// NewLocalNode wraps db as a named node.
func NewLocalNode(name string, db *engine.DB) *LocalNode {
	return &LocalNode{name: name, srv: NewServerLogger(db, nil, ServerOptions{})}
}

// Name implements cluster.Driver.
func (n *LocalNode) Name() string { return n.name }

// DB exposes the underlying engine (for stats in tests and benches).
func (n *LocalNode) DB() *engine.DB { return n.srv.db }

// CreateCollection implements cluster.Driver.
func (n *LocalNode) CreateCollection(name string) error {
	return n.srv.db.Store().CreateCollection(name)
}

// StoreDocument implements cluster.Driver.
func (n *LocalNode) StoreDocument(collection string, doc *xmltree.Document) error {
	return n.srv.db.PutDocument(collection, doc)
}

// Query implements cluster.Driver: yield gets each non-empty frame, and a
// traced query's spans come from the FrameEnd trailer. A frame's payload
// is copied before it is decoded, as gob decodes a received one into fresh
// memory: the stream reuses its buffer, and a batch's nodes alias theirs.
// Each call takes an engine.Origins of its own from the node's pool, as
// sub-queries run concurrently, and puts it back once the stream is over:
// the engine drops its records when the stream returns.
// The serialize span leaves out the consumer's own time inside yield.
func (n *LocalNode) Query(query, tag string, trace bool, yield func(xquery.Seq) error) ([]obs.Span, error) {
	var spans []obs.Span
	var consuming time.Duration // inside yield before FrameEnd, within serialize
	req := &Request{Op: OpQueryStream, Query: query, TraceID: tag, Trace: trace}
	origins, _ := n.origins.Get().(*engine.Origins)
	if origins == nil {
		origins = new(engine.Origins)
	}
	failure, err := n.srv.stream(req, origins, func(f *Frame) error {
		if f.Trailer != nil {
			spans = f.Trailer.Spans
		}
		if f.Count == 0 {
			return nil
		}
		seq, err := decodeFrame(f.Count, bytes.Clone(f.Payload))
		if err != nil {
			return err
		}
		if f.Kind != FrameEnd {
			start := time.Now()
			defer func() { consuming += time.Since(start) }()
		}
		return yield(seq)
	}, nil)
	n.origins.Put(origins)
	if err == nil {
		err = failure
	}
	if err != nil {
		return nil, err
	}
	for i := range spans {
		if spans[i].Name == "serialize" {
			spans[i].Duration -= consuming
		}
	}
	return spans, nil
}

// Fetch implements cluster.Driver: it runs the fetch stream a remote node
// runs (Server.stream with the OpFetchStream request a Client sends), and
// each frame goes to the decode a Client runs on received frames
// (decodeDocs).
func (n *LocalNode) Fetch(collection string, spec cluster.FetchSpec) (*xmltree.Collection, error) {
	col := xmltree.NewCollection(collection)
	req := fetchRequest(collection, spec)
	if req == nil {
		return col, nil
	}
	failure, err := n.srv.stream(req, nil, func(f *Frame) error { return decodeDocs(col, f.Count, f.Payload) }, nil)
	if err == nil {
		err = failure
	}
	if err != nil {
		return nil, err
	}
	return col, nil
}

// CollectionStats implements cluster.Driver.
func (n *LocalNode) CollectionStats(collection string) (storage.Stats, error) {
	return n.srv.db.CollectionStats(collection)
}

// CollectionStatistics implements cluster.StatisticsProvider.
func (n *LocalNode) CollectionStatistics(collection string) (*engine.CollectionStatistics, error) {
	return n.srv.db.CollectionStatistics(collection)
}

// Watch implements cluster.StatisticsProvider by subscribing sink to the
// engine's commits directly: each bump reaches sink from the writer's
// goroutine before the write returns, and the watch is never lost.
func (n *LocalNode) Watch(sink cluster.WatchSink) (func(), error) {
	sink.Up()
	return n.srv.db.OnCommit(sink.Bump), nil
}

// HasCollection implements cluster.Driver.
func (n *LocalNode) HasCollection(collection string) bool {
	return n.srv.db.HasCollection(collection)
}

// Telemetry implements cluster.TelemetryProvider. Only fragment heat is
// returned: an in-process node shares the coordinator's metric registry
// (obs.Default), so returning a metric snapshot too would double-count
// every series when the coordinator merges node telemetry with its own.
func (n *LocalNode) Telemetry() (*obs.TelemetrySnapshot, error) {
	return &obs.TelemetrySnapshot{Node: n.name, Heat: n.srv.db.FragmentHeat()}, nil
}
