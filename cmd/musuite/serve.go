package main

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"musuite/internal/autoscale"
	"musuite/internal/bench"
	"musuite/internal/cluster"
	"musuite/internal/cmdutil"
	"musuite/internal/core"
	"musuite/internal/kernel"
	"musuite/internal/rpc"
	"musuite/internal/trace"
)

// serve runs one tier of a service as its own process.  Every tier
// regenerates the dataset from the shared seed and sizing flags, and a leaf
// does only its own shard's offline work (ANN index, NMF model).
func serve(args []string) error {
	svc, fs, s, err := serviceFlags("serve", args)
	if err != nil {
		return err
	}
	var (
		role     = fs.String("role", "", "leaf | midtier")
		addr     = fs.String("addr", "127.0.0.1:0", "listen address")
		leaves   = fs.String("leaves", "", "midtier: comma-separated leaf addresses (replicas of a shard consecutive)")
		shard    = fs.Int("shard", 0, "leaf: shard index")
		shards   = fs.Int("shards", 4, "total leaf shards (router: unused, its leaf count is len(-leaves))")
		replicas = fs.Int("replicas", 0, "leaf replicas per shard; router: replication pool size (0 = the in-process default: 1, router 2)")
		workers  = fs.Int("workers", 4, "worker pool size")

		hedgePct    = fs.Float64("hedge-pct", 0, "midtier: hedge leaf calls slower than this latency percentile (0 disables, e.g. 0.95)")
		hedgeDelay  = fs.Duration("hedge-delay", 0, "midtier: fixed hedge delay (overrides -hedge-pct)")
		retryBudget = fs.Float64("retry-budget", 0, "midtier: hedge/retry budget as a fraction of primary traffic (0 = default 0.1)")
		leafRetries = fs.Int("leaf-retries", 0, "midtier: retries per failed leaf call")
		maxBatch    = fs.Int("max-batch", 0, "midtier: coalesce up to this many leaf calls per batched RPC (≤1 disables)")
		batchDelay  = fs.Duration("batch-delay", 0, "midtier: fixed batch flush delay (0 tracks the leaf-latency digest)")

		pendingShards = fs.Int("pending-shards", 0, "midtier: pending-table shards per leaf connection (0 = default 8, rounded to a power of two)")
		routing       = fs.String("routing", "modulo", "midtier: key placement strategy: modulo | jump (jump keeps placements stable through resizes)")
		adminAddr     = fs.String("admin", "", "midtier: topology admin listener (empty disables; \":0\" picks a port)")

		admitLimit    = fs.Int("admit-limit", 0, "midtier: adaptive admission concurrency ceiling (0 = admission off)")
		admitDeadline = fs.Duration("admit-deadline", 0, "midtier: per-request latency budget for deadline-aware shedding (0 = off)")
		admitTol      = fs.Float64("admit-tolerance", 0, "midtier: AIMD latency tolerance over the EWMA floor (0 = default 2.0)")
		admitPriority = fs.String("admit-priority", "", "midtier: comma-separated RPC methods classified high-priority (shed last under overload)")

		spares     = fs.String("autoscale-spares", "", "midtier: warm spare leaf groups the autoscaler may place in service (';' between groups, ',' between replicas; empty = autoscaler off)")
		scaleEvery = fs.Duration("autoscale-interval", 0, "midtier: autoscaler poll period (0 = default 250ms)")
		scaleDepth = fs.Int("autoscale-queue-depth", 0, "midtier: dispatch-queue depth marking a poll hot (0 = default 4)")
		scaleP99   = fs.Duration("autoscale-p99", 0, "midtier: tracked p99 service time marking a poll hot (0 = ignore latency signal)")
		scaleDrain = fs.Duration("autoscale-drain", 0, "midtier: scale-down drain deadline (0 = default 5s)")

		leafPar = fs.Int("leaf-parallelism", 0, "leaf (hdsearch, recommend): worker goroutines per kernel scan (0 = NumCPU)")
		scalar  = fs.Bool("scalar-kernels", false, "leaf (hdsearch, recommend): use the reference scalar kernels (disables the tuned SoA engine)")

		traceOut = fs.String("trace-out", "", "write this tier's recorded spans (JSONL) on shutdown")
	)
	var mode bench.FrameworkMode
	var annFlags *cmdutil.ANNFlags
	if svc.Kind == "hdsearch" {
		annFlags = cmdutil.RegisterANNFlags(fs)
	}
	fs.Parse(args[1:])
	if annFlags != nil {
		mode.Index, mode.ANN = annFlags.Kind(), annFlags.Config()
	}
	s.Shards = *shards
	if *replicas > 0 {
		s.LeafReplicas, s.RouterReplicas = *replicas, *replicas
	}

	var spans *trace.Recorder
	if *traceOut != "" {
		spans = trace.NewRecorder(svc.Kind+"-"+*role, trace.DefaultRecorderCap)
	}
	switch *role {
	case "leaf":
		leaf, err := svc.Leaf(*s, mode, *shard, core.LeafOptions{
			Workers: *workers,
			Spans:   spans,
			Kernel:  kernel.New(kernel.Config{Parallelism: *leafPar, ForceScalar: *scalar}),
		})
		if err != nil {
			return err
		}
		bound, err := leaf.Start(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("%s leaf (shard %d) on %s\n", svc.Kind, *shard, bound)
		waitForSignal()
		leaf.Close()

	case "midtier":
		if *leaves == "" {
			return errors.New("midtier requires -leaves")
		}
		strategy, err := cluster.ParseRouting(*routing)
		if err != nil {
			return err
		}
		mt, err := svc.MidTier(*s, mode, strings.Split(*leaves, ","), core.Options{
			Workers: *workers,
			Tail: core.TailPolicy{
				HedgePercentile:  *hedgePct,
				HedgeDelay:       *hedgeDelay,
				RetryBudgetRatio: *retryBudget,
				LeafRetries:      *leafRetries,
			},
			Batch:         core.BatchPolicy{MaxBatch: *maxBatch, Delay: *batchDelay},
			PendingShards: *pendingShards,
			Routing:       strategy,
			Spans:         spans,
			Admit:         core.AdmitPolicy{MaxInflight: *admitLimit, Deadline: *admitDeadline, Tolerance: *admitTol},
			Classify:      classifier(*admitPriority),
		})
		if err != nil {
			return err
		}
		bound, err := mt.Start(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("%s mid-tier on %s (%d leaf groups, %d leaves)\n", svc.Kind, bound, mt.NumLeaves(), mt.NumReplicas())
		if *adminAddr != "" {
			adm, adminBound, err := cluster.ServeAdmin(mt.Topology(), *adminAddr)
			if err != nil {
				return err
			}
			defer adm.Close()
			fmt.Printf("%s topology admin on %s\n", svc.Kind, adminBound)
		}
		// The closed scaling loop over the mid-tier's own topology: scale-up
		// dials the next warm spare group, scale-down drains the newest
		// autoscaler-added group.
		stopScaler := func() {}
		if groups := autoscale.ParseSpareGroups(*spares); len(groups) > 0 {
			if *scaleDrain <= 0 {
				*scaleDrain = 5 * time.Second
			}
			base := mt.NumLeaves()
			scaler := autoscale.New(autoscale.NewSpareTarget(
				func() (core.TierStats, error) { return mt.Stats(), nil },
				mt.AddLeafGroup,
				func(shard int) error { return mt.DrainLeafGroup(shard, *scaleDrain) },
				groups,
			), autoscale.Config{
				Interval:     *scaleEvery,
				UpQueueDepth: *scaleDepth,
				UpP99:        *scaleP99,
				MinLeaves:    base,
				MaxLeaves:    base + len(groups),
			})
			scaler.Start()
			stopScaler = scaler.Stop
			fmt.Printf("autoscaler armed: %d spare leaf groups, %d-%d leaves\n", len(groups), base, base+len(groups))
		}
		waitForSignal()
		stopScaler()
		mt.Close()

	default:
		return errors.New("-role must be leaf or midtier")
	}

	if err := trace.FlushFile(*traceOut, spans); err != nil {
		return err
	}
	if spans != nil {
		fmt.Printf("%s: wrote %d spans to %s\n", svc.Kind, spans.Len(), *traceOut)
	}
	return nil
}

// classifier builds the per-request priority classifier for -admit-priority,
// nil when the flag is empty.
func classifier(methods string) func(*rpc.Request) core.Priority {
	high := map[string]bool{}
	for _, m := range strings.Split(methods, ",") {
		if m = strings.TrimSpace(m); m != "" {
			high[m] = true
		}
	}
	if len(high) == 0 {
		return nil
	}
	return func(req *rpc.Request) core.Priority {
		if high[req.Method] {
			return core.PriorityHigh
		}
		return core.PriorityNormal
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
