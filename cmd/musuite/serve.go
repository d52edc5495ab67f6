package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"musuite/internal/cmdutil"
	"musuite/internal/core"
	"musuite/internal/kernel"
	"musuite/internal/trace"
)

// serve runs one tier of a service as its own process.  Every tier
// regenerates the dataset from the shared seed and sizing flags, and a leaf
// does only its own shard's offline work (ANN index, NMF model).
func serve(fs *flag.FlagSet, args []string) error {
	svc, s, err := serviceFlags(fs, args)
	if err != nil {
		return err
	}
	var (
		role   = fs.String("role", "", "leaf | midtier")
		addr   = fs.String("addr", "127.0.0.1:0", "listen address")
		leaves = fs.String("leaves", "", "midtier: comma-separated leaf addresses (replicas of a shard consecutive)")
		shard  = fs.Int("shard", 0, "leaf: shard index")
	)
	modeFlags := cmdutil.ModeFlags(fs)
	var tracing cmdutil.TraceFlags
	tracing.RegisterOut(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	mode, err := modeFlags(s)
	if err != nil {
		return err
	}

	var spans *trace.Recorder
	if tracing.Out != "" {
		spans = trace.NewRecorder(svc.Kind+"-"+*role, 0)
	}
	switch *role {
	case "leaf":
		leaf, err := svc.Leaf(*s, mode, *shard, core.LeafOptions{
			Spans:  spans,
			Kernel: kernel.New(kernel.Config{Parallelism: mode.LeafParallelism, ForceScalar: mode.ScalarKernels}),
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
		opts := mode.MidTier
		opts.Spans = spans
		mt, err := svc.MidTier(*s, mode, strings.Split(*leaves, ","), opts)
		if err != nil {
			return err
		}
		bound, err := mt.Start(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("%s mid-tier on %s (%d leaf groups, %d leaves)\n", svc.Kind, bound, mt.NumLeaves(), mt.NumReplicas())
		waitForSignal()
		mt.Close()

	default:
		return errors.New("-role must be leaf or midtier")
	}

	if spans != nil {
		return tracing.Write(spans.Snapshot())
	}
	return nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
