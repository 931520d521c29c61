// Package partix is an open-source implementation of PartiX — the system
// described in "Efficiently Processing XML Queries over Fragmented
// Repositories with PartiX" (Andrade, Ruberg, Baião, Braganholo, Mattoso —
// EDBT 2006).
//
// PartiX improves XML query latency by fragmenting collections of XML
// documents — horizontally (selections over documents), vertically
// (projections with prune criteria) or hybrid (both) — across a set of
// XQuery-enabled database nodes, and coordinating distributed execution:
// queries are analyzed, decomposed into sub-queries over the relevant
// fragments, and the partial results composed back (union ∪ for
// horizontal designs, an ID-preserving join ⨝ for vertical ones).
//
// This package is the public facade; the subsystems live under internal/:
//
//   - xmltree, xmlschema: the XML data model and schema of the paper's
//     Section 3.1;
//   - algebra: the TLC-style operators fragments are defined with;
//   - fragmentation: fragment definitions and the correctness rules
//     (completeness, disjointness, reconstruction) of Section 3.3;
//   - storage, engine: the sequential XML DBMS each node runs (the role
//     eXist plays in the paper);
//   - xquery: the XQuery subset processor, whose parser and interpreter
//     also read and evaluate the path expressions and simple predicates
//     fragments are defined with;
//   - partix: the middleware (catalogs, data publisher, distributed query
//     service);
//   - cluster, wire: node drivers, the cost model of Section 5, and the
//     TCP protocol for remote nodes;
//   - toxgene, xbench, workload, experiments: the data generators,
//     workloads and the harness reproducing the paper's Figure 7.
//
// # Quick start
//
//	sys := partix.NewSystem(partix.GigabitEthernet)
//	db, _ := partix.OpenEngine("node0.db")
//	sys.AddNode(partix.NewLocalNode("node0", db))
//	// … add more nodes, define a scheme, Publish, Query.
//
// See examples/ for complete programs.
package partix

import (
	"io"
	"log"
	"net"
	"time"

	icluster "partix/internal/cluster"
	idesign "partix/internal/design"
	iengine "partix/internal/engine"
	ifrag "partix/internal/fragmentation"
	iobs "partix/internal/obs"
	ipartix "partix/internal/partix"
	iwire "partix/internal/wire"
	ixmlschema "partix/internal/xmlschema"
	ixmltree "partix/internal/xmltree"
	ixquery "partix/internal/xquery"
)

// Data model (paper Section 3.1).
type (
	// Node is one node of an XML data tree.
	Node = ixmltree.Node
	// Document is a well-formed XML document with stable node IDs.
	Document = ixmltree.Document
	// Collection is a named set of documents (SD when it has exactly one).
	Collection = ixmltree.Collection
	// Schema is a DTD-like schema with cardinalities.
	Schema = ixmlschema.Schema
	// CollectionSpec is C := ⟨S, τroot⟩, a homogeneous collection type.
	CollectionSpec = ixmlschema.CollectionSpec
)

// Fragmentation model (paper Sections 3.2–3.3).
type (
	// Fragment is one fragment definition F := ⟨C, γ⟩.
	Fragment = ifrag.Fragment
	// Scheme is a fragmentation design Φ := {F1, …, Fn} with its
	// correctness checks.
	Scheme = ifrag.Scheme
	// MaterializeMode selects FragMode1/FragMode2 materialization for
	// hybrid fragments.
	MaterializeMode = ifrag.MaterializeMode
)

// Middleware and nodes (paper Section 4).
type (
	// System is a running PartiX deployment.
	System = ipartix.System
	// PublishOptions configure the distributed data publisher.
	PublishOptions = ipartix.PublishOptions
	// QueryResult carries a distributed query's items and timings.
	QueryResult = ipartix.QueryResult
	// Strategy names how a query was executed.
	Strategy = ipartix.Strategy
	// CollectionMeta is a catalog entry.
	CollectionMeta = ipartix.CollectionMeta
	// Driver is the uniform node interface (the paper's PartiX Driver).
	Driver = icluster.Driver
	// CostModel is the Section 5 communication model.
	CostModel = icluster.CostModel
	// Engine is the sequential XML DBMS a node runs.
	Engine = iengine.DB
	// EngineOptions configure an engine.
	EngineOptions = iengine.Options
	// LocalNode is an in-process node driver: a NodeServer without the
	// socket, whose query results arrive as a RemoteNode's do.
	LocalNode = iwire.LocalNode
	// RemoteNode is a TCP node driver.
	RemoteNode = iwire.Client
	// NodeClientOptions tune a remote driver's deadlines, reconnect
	// retries and connection pool.
	NodeClientOptions = iwire.ClientOptions
	// NodeClientStats count a remote driver's transport events.
	NodeClientStats = iwire.ClientStats
	// NodeServer serves an engine over TCP.
	NodeServer = iwire.Server
	// NodeServerOptions tune a node server's idle and drain behaviour.
	NodeServerOptions = iwire.ServerOptions
	// Seq is an XQuery result sequence.
	Seq = ixquery.Seq
	// Item is one result item: a node, string, float64 or bool. A node
	// is a *Node, or, from a RemoteNode, a node kept as the bytes it
	// arrived in until its tree is asked for; ItemNode reads either.
	Item = ixquery.Item
)

// Observability (metrics, tracing, structured logging — internal/obs).
type (
	// TraceSpan is one node of an assembled query trace
	// (QueryResult.Trace); Format renders the tree.
	TraceSpan = iobs.Span
	// Logger is the leveled structured-logging interface the wire layer
	// and the slow-query log write to.
	Logger = iobs.Logger
	// LogLevel orders log severities.
	LogLevel = iobs.Level
)

// Log levels.
const (
	LogDebug = iobs.LevelDebug
	LogInfo  = iobs.LevelInfo
	LogWarn  = iobs.LevelWarn
	LogError = iobs.LevelError
)

// ErrOverloaded matches a query a node shed rather than served: its
// in-flight cap was reached (partixd -max-inflight). The coordinator
// tries every replica of a fragment first, so System.Query returns it
// (wrapped) only once every copy refused or failed. Match with errors.Is.
var ErrOverloaded = iwire.ErrNodeOverloaded

// NopLogger returns the default do-nothing logger.
func NopLogger() Logger { return iobs.Nop() }

// NewTextLogger writes key=value lines at or above min to w.
func NewTextLogger(w io.Writer, min LogLevel) Logger { return iobs.NewTextLogger(w, min) }

// LoggerFromStd adapts a *log.Logger to the structured interface (nil
// yields the no-op logger).
func LoggerFromStd(l *log.Logger, min LogLevel) Logger { return iobs.FromStd(l, min) }

// MetricsText renders every partix_* metric series of this process in
// Prometheus text exposition format (what partixd serves on /metrics).
func MetricsText(w io.Writer) error { return iobs.Default.WriteText(w) }

// SetMetricsEnabled toggles counter/histogram updates process-wide
// (gauges always track, so paired increments stay balanced). Metrics
// are enabled by default; disabling is an ablation/benchmark switch.
func SetMetricsEnabled(on bool) { iobs.SetEnabled(on) }

// Execution strategies.
const (
	StrategyCentralized = ipartix.StrategyCentralized
	StrategyRouted      = ipartix.StrategyRouted
	StrategyUnion       = ipartix.StrategyUnion
	StrategyAggregate   = ipartix.StrategyAggregate
	StrategyReconstruct = ipartix.StrategyReconstruct
)

// Hybrid materialization modes (paper Section 5).
const (
	// FragMode2: one spine-preserving document per fragment (the paper's
	// winning implementation).
	FragMode2 = ifrag.FragModeSD
	// FragMode1: every selected child becomes its own document.
	FragMode1 = ifrag.FragModeMD
)

// Cost models.
var (
	// GigabitEthernet is the paper's 1 Gbit/s link.
	GigabitEthernet = icluster.GigabitEthernet
	// NoNetwork disables transmission accounting.
	NoNetwork = icluster.NoNetwork
)

// NewSystem creates a PartiX deployment with the given cost model.
func NewSystem(cost CostModel) *System { return ipartix.NewSystem(cost) }

// OpenEngine opens (creating if needed) a node database at path.
func OpenEngine(path string) (*Engine, error) { return iengine.Open(path, iengine.Options{}) }

// OpenEngineWith opens a node database with options.
func OpenEngineWith(path string, opts EngineOptions) (*Engine, error) {
	return iengine.Open(path, opts)
}

// NewLocalNode wraps an engine as an in-process node named name.
func NewLocalNode(name string, db *Engine) *LocalNode { return iwire.NewLocalNode(name, db) }

// DialNode connects to a remote partixd node with default transport
// options; timeout bounds the TCP connect.
func DialNode(name, addr string, timeout time.Duration) (*RemoteNode, error) {
	return iwire.Dial(name, addr, timeout)
}

// DialNodeWith connects to a remote partixd node with explicit deadline,
// retry and pool options.
func DialNodeWith(name, addr string, opts NodeClientOptions) (*RemoteNode, error) {
	return iwire.DialWith(name, addr, opts)
}

// ServeNode serves db over the listener until it is closed.
func ServeNode(db *Engine, l net.Listener, logger *log.Logger) (*NodeServer, error) {
	srv := iwire.NewServer(db, logger)
	go srv.Serve(l)
	return srv, nil
}

// ServeNodeWith serves db over the listener with explicit idle-timeout
// and drain options.
func ServeNodeWith(db *Engine, l net.Listener, logger *log.Logger, opts NodeServerOptions) (*NodeServer, error) {
	srv := iwire.NewServerWith(db, logger, opts)
	go srv.Serve(l)
	return srv, nil
}

// ParseDocument parses an XML document from a string.
func ParseDocument(name, xml string) (*Document, error) { return ixmltree.ParseString(name, xml) }

// SerializeDocument renders a document as XML text.
func SerializeDocument(d *Document) string { return ixmltree.SerializeString(d) }

// NodeString renders a result node (or any subtree) as XML text.
func NodeString(n *Node) string { return ixmltree.NodeString(n) }

// ItemString atomizes a result item to its string value.
func ItemString(it Item) string { return ixquery.ItemString(it) }

// ItemNode returns the node a result item is, and whether it is one. A
// node a RemoteNode returned has its tree built — with those of its frame
// — on the first call; every call returns the same *Node.
func ItemNode(it Item) (*Node, bool) { return ixquery.NodeOf(it) }

// NewCollection builds a collection from documents.
func NewCollection(name string, docs ...*Document) *Collection {
	return ixmltree.NewCollection(name, docs...)
}

// Horizontal defines a horizontal fragment from a predicate, e.g.
// `/Item/Section = "CD"` or `contains(//Description, "good")`.
func Horizontal(name, predicate string) (*Fragment, error) {
	return ifrag.NewHorizontal(name, predicate)
}

// Vertical defines a vertical fragment πP,Γ from a path and prune paths.
func Vertical(name, path string, prune ...string) (*Fragment, error) {
	return ifrag.NewVertical(name, path, prune...)
}

// Hybrid defines a hybrid fragment πP,Γ • σμ.
func Hybrid(name, path string, prune []string, predicate string) (*Fragment, error) {
	return ifrag.NewHybrid(name, path, prune, predicate)
}

// VirtualStoreSchema is the paper's Figure 1(a) schema.
func VirtualStoreSchema() *Schema { return ixmlschema.VirtualStore() }

// XBenchArticleSchema is the article schema of the vertical experiments.
func XBenchArticleSchema() *Schema { return ixmlschema.XBenchArticle() }

// ParseSchemaText reads the compact DTD-like schema notation, e.g.
//
//	Store = Sections Items Employees
//	Items = Item*
//	Item  @ id
//
// (see internal/xmlschema.ParseSchema for the full grammar). Attaching a
// schema to a Scheme enables static fragment-path cardinality checks and
// schema-aware routing.
func ParseSchemaText(name, text string) (*Schema, error) {
	return ixmlschema.ParseSchema(name, text)
}

// Query planning (the distributed query service's explain facility).
type (
	// Plan is how a query would execute, without executing it.
	Plan = ipartix.Plan
	// PlanStep is one sub-query or fragment fetch of a plan.
	PlanStep = ipartix.PlanStep
)

// Fragmentation design advisor (the methodology the paper lists as future
// work, implemented in internal/design).
type (
	// WorkloadQuery is a query plus frequency weight for the advisor.
	WorkloadQuery = idesign.WorkloadQuery
	// HorizontalDesignOptions tune the min-term horizontal advisor.
	HorizontalDesignOptions = idesign.HorizontalOptions
	// VerticalDesignOptions tune the affinity-based vertical advisor.
	VerticalDesignOptions = idesign.VerticalOptions
	// VerticalAdvice is a proposed vertical design with colocation groups.
	VerticalAdvice = idesign.VerticalAdvice
)

// ProposeHorizontalDesign derives a horizontal fragmentation of c from the
// workload's simple predicates (min-term predicate method).
func ProposeHorizontalDesign(c *Collection, queries []WorkloadQuery, opts HorizontalDesignOptions) (*Scheme, error) {
	return idesign.ProposeHorizontal(c, queries, opts)
}

// ProposeVerticalDesign derives a vertical fragmentation of c by
// clustering the root's subtrees by query affinity.
func ProposeVerticalDesign(c *Collection, queries []WorkloadQuery, opts VerticalDesignOptions) (*VerticalAdvice, error) {
	return idesign.ProposeVertical(c, queries, opts)
}

// AllocateFragments places a scheme's fragments on nodes, balancing bytes;
// groups (from a VerticalAdvice) pins colocated fragments together.
func AllocateFragments(scheme *Scheme, c *Collection, nodes []string, groups map[string]int) (map[string]string, error) {
	return idesign.Allocate(scheme, c, nodes, groups)
}

// SchemeEvaluation scores a candidate design against a workload.
type SchemeEvaluation = idesign.Evaluation

// EvaluateScheme plans every workload query against a candidate scheme
// (no data needed) and reports the weighted fragments-contacted cost and
// the share of queries needing join reconstruction.
func EvaluateScheme(scheme *Scheme, queries []WorkloadQuery, mode MaterializeMode) (*SchemeEvaluation, error) {
	return idesign.EvaluateScheme(scheme, queries, mode)
}
