// Package musuite is a from-scratch Go implementation of μSuite, the
// benchmark suite for microservices of Sriraman & Wenisch (IISWC 2018),
// together with the OS/network characterization harness the paper builds on
// it.
//
// The suite comprises four OLDI services, each a three-tier microservice
// deployment (front-end client → mid-tier → leaves) over this module's own
// gRPC-like RPC substrate:
//
//   - HDSearch — content-based image similarity search (LSH mid-tier,
//     distance-kernel leaves)
//   - Router — replication-based protocol routing for memcached-style
//     key-value stores (SpookyHash routing, replicated leaves)
//   - SetAlgebra — set intersections on posting lists for document search
//   - Recommend — user-based collaborative-filtering rating prediction
//     (NMF + allknn leaves)
//
// Quick start (in-process deployment):
//
//	corpus := musuite.NewImageCorpus(musuite.ImageCorpusConfig{N: 10000, Dim: 128, Seed: 1})
//	cluster, err := musuite.StartHDSearchCluster(musuite.HDSearchClusterConfig{Corpus: corpus})
//	client, err := musuite.DialHDSearch(cluster.Addr, nil)
//	neighbors, err := client.Search(corpus.Queries(1, 2)[0], 5)
//
// The paper's evaluation is regenerated by `musuite bench` (cmd/musuite),
// not through this package; EXPERIMENTS.md records what it measures.
package musuite

import (
	"time"

	"musuite/internal/ann"
	"musuite/internal/autoscale"
	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/loadgen"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/stats"
	"musuite/internal/telemetry"
	"musuite/internal/topo"
)

// --- framework (paper §IV) ---

// Framework types: the mid-tier microservice framework with blocking
// pollers, dispatch worker pools, async fan-out, and response threads.
type (
	// MidTierOptions configures a mid-tier tier (workers, response
	// threads, dispatch/wait modes, telemetry probe) and embeds the
	// EdgePolicy of its leaf fan-out.
	MidTierOptions = core.Options
	// EdgePolicy is one downstream edge's policy: fan-out timeout,
	// TailPolicy, BatchPolicy, routing, connections per leaf.
	EdgePolicy = core.EdgePolicy
	// LeafOptions configures a leaf tier.
	LeafOptions = core.LeafOptions
	// DispatchMode selects where a request's handler runs: per request
	// (DispatchAuto), always dispatched to a worker, or always in-line.
	DispatchMode = core.DispatchMode
	// WaitMode selects how idle threads await work: blocking, polling, or
	// adaptive (spin, then park).
	WaitMode = core.WaitMode
	// TailPolicy configures tail-tolerant fan-out: hedged leaf requests,
	// retry budgets, and per-call retries across shard replicas.
	TailPolicy = core.TailPolicy
	// BatchPolicy configures adaptive cross-request coalescing of leaf
	// RPCs at the mid-tier.
	BatchPolicy = core.BatchPolicy
	// Probe is the telemetry sink reproducing the paper's eBPF/perf
	// measurements in-process.
	Probe = telemetry.Probe
	// Counter names one counted event (syscall proxies, context switches,
	// tail/batch/topology/admission/kernel events); Overhead enumerates
	// the OS-overhead latency classes (paper Figs. 11–18).
	Counter  = telemetry.Counter
	Overhead = telemetry.Overhead
	// TelemetrySnapshot is a point-in-time copy of a counter table,
	// indexed by Counter.
	TelemetrySnapshot = telemetry.Snapshot
)

// Framework mode constants.
const (
	// DispatchAuto, the zero value, runs a request on the poller that
	// decoded it unless more input is already waiting behind it — the §VII
	// dynamic-adaptation proposal.  Dispatched and Inline fix the choice.
	DispatchAuto = core.DispatchAuto
	Dispatched   = core.Dispatched
	Inline       = core.Inline
	WaitBlocking = core.WaitBlocking
	WaitPolling  = core.WaitPolling
	// WaitAdaptive is the spin-then-park hybrid of the paper's §VII
	// blocking-vs-polling proposal.
	WaitAdaptive = core.WaitAdaptive
	// CtxSwitch and HITM index a TelemetrySnapshot's context-switch and
	// lock-contention proxies (paper Fig. 19).
	CtxSwitch = telemetry.CtxSwitch
	HITM      = telemetry.HITM
)

// NewProbe creates a telemetry probe to attach to a mid-tier under study.
func NewProbe() *Probe { return telemetry.NewProbe() }

// Syscalls lists the tracked syscall proxy classes in display order.
func Syscalls() []Counter { return telemetry.Syscalls() }

// Overheads lists the OS-overhead latency classes in display order.
func Overheads() []Overhead { return telemetry.Overheads() }

// --- live cluster topology ---

// Live-topology types: the epoch-versioned leaf topology every mid-tier
// serves from and its routing strategies.
type (
	// ClusterTopology owns a mid-tier's leaf groups and the add/drain/
	// remove operations that resize it under load (MidTier.Topology()).
	ClusterTopology = cluster.Topology
	// ClusterView is an operator-facing description of the topology.
	ClusterView = cluster.View
	// ClusterRouter maps key hashes onto shards; ModuloRouting and
	// JumpRouting are the shipped strategies.
	ClusterRouter = cluster.Router
)

// The shipped routing strategies.
var (
	// ModuloRouting is the classic hash-mod-N placement (the default).
	ModuloRouting ClusterRouter = cluster.Modulo{}
	// JumpRouting is jump consistent hashing: only ~1/(n+1) of key
	// placements move when the shard count changes.
	JumpRouting ClusterRouter = cluster.Jump{}
)

// ParseRouting resolves a -routing flag value ("modulo", "jump") to a
// strategy.
func ParseRouting(name string) (ClusterRouter, error) { return cluster.ParseRouting(name) }

// --- datasets ---

// Dataset generators (deterministic synthetic stand-ins for the paper's
// corpora).
type (
	ImageCorpus        = dataset.ImageCorpus
	ImageCorpusConfig  = dataset.ImageCorpusConfig
	DocCorpus          = dataset.DocCorpus
	DocCorpusConfig    = dataset.DocCorpusConfig
	RatingCorpus       = dataset.RatingCorpus
	RatingCorpusConfig = dataset.RatingCorpusConfig
	KVTrace            = dataset.KVTrace
	KVTraceConfig      = dataset.KVTraceConfig
	KVOp               = dataset.KVOp
	Vector             = []float32
)

// Key-value operation kinds of the Router trace.
const (
	KVGet = dataset.KVGet
	KVSet = dataset.KVSet
)

// NewImageCorpus generates the HDSearch corpus.
func NewImageCorpus(cfg ImageCorpusConfig) *ImageCorpus { return dataset.NewImageCorpus(cfg) }

// NewDocCorpus generates the Set Algebra corpus.
func NewDocCorpus(cfg DocCorpusConfig) *DocCorpus { return dataset.NewDocCorpus(cfg) }

// NewRatingCorpus generates the Recommend corpus.
func NewRatingCorpus(cfg RatingCorpusConfig) *RatingCorpus { return dataset.NewRatingCorpus(cfg) }

// NewKVTrace generates the Router workload trace.
func NewKVTrace(cfg KVTraceConfig) *KVTrace { return dataset.NewKVTrace(cfg) }

// --- services ---

// HDSearch deployment and client types.
type (
	HDSearchClusterConfig = hdsearch.ClusterConfig
	HDSearchCluster       = hdsearch.Cluster
	HDSearchClient        = hdsearch.Client
	HDSearchNeighbor      = hdsearch.Neighbor
	// HDSearchIndexKind selects the mid-tier candidate index.
	HDSearchIndexKind = hdsearch.IndexKind
	// HDSearchANNConfig tunes the leaf-resident ANN index builds for the
	// ivf* and hnsw kinds (ClusterConfig.ANN): coarse-quantizer cluster
	// count, PQ subspaces and the rerank default for IVF, the
	// M/efConstruction/efSearch graph knobs for HNSW, and the seed.
	HDSearchANNConfig = ann.Config
)

// The available HDSearch candidate-index structures: the paper's "LSH
// tables, kd-trees, or k-means clusters" trio of mid-tier candidate
// generators, plus the leaf-resident sub-linear ANN indexes — plain IVF
// (exact float32 candidate scoring), IVF over an int8 scalar-quantized
// store, IVF over a product-quantized store (both with exact float32
// re-rank), and the HNSW proximity graph (exact scoring throughout).
const (
	HDSearchIndexLSH    = hdsearch.IndexLSH
	HDSearchIndexKDTree = hdsearch.IndexKDTree
	HDSearchIndexKMeans = hdsearch.IndexKMeans
	HDSearchIndexIVF    = hdsearch.IndexIVF
	HDSearchIndexIVFSQ  = hdsearch.IndexIVFSQ
	HDSearchIndexIVFPQ  = hdsearch.IndexIVFPQ
	HDSearchIndexHNSW   = hdsearch.IndexHNSW
)

// HDSearchIndexKinds lists every selectable candidate index in display
// order (the set the indexcmp experiment sweeps).
var HDSearchIndexKinds = hdsearch.IndexKinds

// StartHDSearchCluster launches an in-process HDSearch deployment.
func StartHDSearchCluster(cfg HDSearchClusterConfig) (*HDSearchCluster, error) {
	return hdsearch.StartCluster(cfg)
}

// DialHDSearch connects a front-end client to an HDSearch mid-tier.
func DialHDSearch(addr string, opts *RPCClientOptions) (*HDSearchClient, error) {
	return hdsearch.DialClient(addr, opts)
}

// Router deployment and client types.
type (
	RouterClusterConfig = router.ClusterConfig
	RouterCluster       = router.Cluster
	RouterClient        = router.Client
)

// StartRouterCluster launches an in-process Router deployment.
func StartRouterCluster(cfg RouterClusterConfig) (*RouterCluster, error) {
	return router.StartCluster(cfg)
}

// DialRouter connects a front-end client to a Router mid-tier.
func DialRouter(addr string, opts *RPCClientOptions) (*RouterClient, error) {
	return router.DialClient(addr, opts)
}

// SetAlgebra deployment and client types.
type (
	SetAlgebraClusterConfig = setalgebra.ClusterConfig
	SetAlgebraCluster       = setalgebra.Cluster
	SetAlgebraClient        = setalgebra.Client
)

// StartSetAlgebraCluster launches an in-process Set Algebra deployment.
func StartSetAlgebraCluster(cfg SetAlgebraClusterConfig) (*SetAlgebraCluster, error) {
	return setalgebra.StartCluster(cfg)
}

// DialSetAlgebra connects a front-end client to a Set Algebra mid-tier.
func DialSetAlgebra(addr string, opts *RPCClientOptions) (*SetAlgebraClient, error) {
	return setalgebra.DialClient(addr, opts)
}

// Recommend deployment and client types.
type (
	RecommendClusterConfig = recommend.ClusterConfig
	RecommendCluster       = recommend.Cluster
	RecommendClient        = recommend.Client
)

// StartRecommendCluster launches an in-process Recommend deployment.
func StartRecommendCluster(cfg RecommendClusterConfig) (*RecommendCluster, error) {
	return recommend.StartCluster(cfg)
}

// DialRecommend connects a front-end client to a Recommend mid-tier.
func DialRecommend(addr string, opts *RPCClientOptions) (*RecommendClient, error) {
	return recommend.DialClient(addr, opts)
}

// --- RPC substrate ---

// RPC substrate types (the gRPC stand-in).
type (
	RPCClient        = rpc.Client
	RPCClientOptions = rpc.ClientOptions
	RPCCall          = rpc.Call
	// TierStats are a framework tier's operational counters, served on
	// the reserved core.stats RPC method.
	TierStats = core.TierStats
)

// DialRPC opens a raw RPC connection to any tier (e.g. to query its
// core.stats endpoint).
func DialRPC(addr string, opts *RPCClientOptions) (*RPCClient, error) {
	return rpc.Dial(addr, opts)
}

// QueryStats fetches a tier's operational counters over a client connection.
func QueryStats(c *RPCClient) (TierStats, error) { return core.QueryStats(c) }

// --- overload control & autoscaling ---

// Admission-control and autoscaling types: the mid-tier's adaptive (AIMD)
// admission controller and the closed scaling loop that grows or shrinks
// the leaf topology from its signals.
type (
	// AdmitPolicy configures the mid-tier admission controller
	// (MidTierOptions.Admit); the zero value disables it.
	AdmitPolicy = core.AdmitPolicy
	// OverloadError is the typed shed a mid-tier's admission controller
	// returns instead of queueing work past its limit; it is never retried
	// and never consumes retry budget.
	OverloadError = rpc.OverloadError
	// Autoscaler runs the poll→decide→act scaling loop.
	Autoscaler = autoscale.Autoscaler
	// AutoscaleConfig sets its poll interval, capacity bounds and probe; its
	// hysteresis (2 hot polls up, 20 cold down) and cooldown (4 intervals)
	// are constants.
	AutoscaleConfig = autoscale.Config
	// AutoscaleTarget is the capacity surface the loop drives.
	AutoscaleTarget = autoscale.Target
	// AutoscaleFuncs adapts closures to AutoscaleTarget.
	AutoscaleFuncs = autoscale.Funcs
	// AutoscaleEvent is one scale action taken by the loop.
	AutoscaleEvent = autoscale.Event
)

// IsOverload reports whether err is (or wraps) a typed overload shed.
func IsOverload(err error) bool { return rpc.IsOverload(err) }

// NewAutoscaler builds an autoscaler over target; Start arms it.
func NewAutoscaler(target AutoscaleTarget, cfg AutoscaleConfig) *Autoscaler {
	return autoscale.New(target, cfg)
}

// --- load generation & measurement (paper §V) ---

// Load-generation and measurement types.
type (
	IssueFunc        = loadgen.IssueFunc
	ClosedLoopConfig = loadgen.ClosedLoopConfig
	ClosedLoopResult = loadgen.ClosedLoopResult
	OpenLoopConfig   = loadgen.OpenLoopConfig
	OpenLoopResult   = loadgen.OpenLoopResult
	SaturationConfig = loadgen.SaturationConfig
	SaturationResult = loadgen.SaturationResult
	LoadPhase        = loadgen.LoadPhase
	PhaseResult      = loadgen.PhaseResult
	LatencySnapshot  = stats.Snapshot
	LatencyHistogram = stats.Histogram
	Violin           = stats.Violin
)

// RunClosedLoop drives a service in closed-loop mode (saturation probing).
func RunClosedLoop(issue IssueFunc, cfg ClosedLoopConfig) ClosedLoopResult {
	return loadgen.RunClosedLoop(issue, cfg)
}

// RunOpenLoop drives a service with Poisson arrivals, measuring latency
// from scheduled send time (coordinated-omission safe).
func RunOpenLoop(issue IssueFunc, cfg OpenLoopConfig) OpenLoopResult {
	return loadgen.RunOpenLoop(issue, cfg)
}

// FindSaturation discovers peak sustainable throughput (Fig. 9 methodology).
func FindSaturation(issue IssueFunc, cfg SaturationConfig) SaturationResult {
	return loadgen.FindSaturation(issue, cfg)
}

// NewLatencyHistogram creates a concurrent log-bucketed latency histogram.
func NewLatencyHistogram() *LatencyHistogram { return stats.NewHistogram() }

// RunSchedule drives a time-varying (diurnal / flash-crowd) load schedule.
func RunSchedule(issue IssueFunc, phases []LoadPhase, seed int64, drainTimeout time.Duration) []PhaseResult {
	return loadgen.RunSchedule(issue, phases, seed, drainTimeout)
}

// FlashCrowd builds a baseline→spike→recovery load schedule.
func FlashCrowd(baselineQPS, spikeFactor float64, baseline, spike time.Duration) []LoadPhase {
	return loadgen.FlashCrowd(baselineQPS, spikeFactor, baseline, spike)
}

// Diurnal builds a staircase load schedule rising to a peak and back.
func Diurnal(troughQPS, peakQPS float64, stepsPerSide int, total time.Duration) []LoadPhase {
	return loadgen.Diurnal(troughQPS, peakQPS, stepsPerSide, total)
}

// --- declarative topologies & scenarios ---

// Declarative-topology types: YAML specs composing arbitrary service DAGs
// over the mid-tier framework, and the scenario engine that degrades them
// on a schedule (DESIGN.md §5.9).
type (
	// TopoSpec is a parsed, validated topology: services, policy edges,
	// load shape, and scenario events.
	TopoSpec = topo.Spec
	// TopoServiceSpec / TopoEventSpec are one service node and one timed
	// degradation event of a spec.
	TopoServiceSpec = topo.ServiceSpec
	TopoEventSpec   = topo.EventSpec
	// TopoBuildOptions carries cross-cutting build knobs (span recorder,
	// sampling, telemetry probe).
	TopoBuildOptions = topo.BuildOptions
	// TopoDeployment is a running instantiation of a spec; Service,
	// Entry, and Close navigate and tear it down.
	TopoDeployment = topo.Deployment
	// TopoScenario is an armed set of timed degradations
	// (Deployment.StartScenario); its Log records apply/revert events.
	TopoScenario = topo.Scenario
	// TopoRunOptions / TopoRunResult configure and report a full
	// build→load→scenario→drain run.
	TopoRunOptions = topo.RunOptions
	TopoRunResult  = topo.RunResult
)

// ParseTopology parses and validates YAML topology-spec source.
func ParseTopology(src []byte) (*TopoSpec, error) { return topo.ParseSpec(src) }

// LoadTopologyFile parses and validates a topology-spec file.
func LoadTopologyFile(path string) (*TopoSpec, error) { return topo.LoadSpecFile(path) }

// BuildTopology instantiates a validated spec as live tiers.
func BuildTopology(spec *TopoSpec, opts TopoBuildOptions) (*TopoDeployment, error) {
	return topo.Build(spec, opts)
}

// RunTopology builds a spec, offers its load shape with the scenario
// armed, and returns per-phase results plus the scenario event log.
func RunTopology(spec *TopoSpec, opts TopoRunOptions) (*TopoRunResult, error) {
	return topo.Run(spec, opts)
}

// TopologyKinds lists the registered service kinds a spec may name in
// addition to the built-in synthetic/compute/cache/store node kinds.
func TopologyKinds() []string { return topo.RegisteredKinds() }

// ScenarioViolations inspects a run for acceptance failures: untyped
// errors, unresolved requests, or (recoveryFloor > 0) final-phase goodput
// below recoveryFloor× the first phase's.
func ScenarioViolations(res *TopoRunResult, recoveryFloor float64) []string {
	return topo.ScenarioViolations(res, recoveryFloor)
}
