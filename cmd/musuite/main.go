// Command musuite is the suite's one binary.  `serve`, `load` and `topo`
// stand up and drive a deployment from the service's single definition
// (internal/bench), so the tiers, the load generator and a topology spec
// given the same sizes and seed agree on the dataset without shipping files;
// `bench` regenerates the paper's evaluation and `trace` inspects exported
// traces:
//
//	musuite serve <service> -role leaf    -addr :7101 -shard 0 -shards 4
//	musuite serve <service> -role midtier -addr :7100 -leaves h1:7101,...,h4:7104 -shards 4
//	musuite load  <service> -target host:7100 -mode open -qps 1000 -duration 30s
//	musuite topo  -topo examples/social-network.yaml
//	musuite bench -experiment fig10 -services HDSearch,Router -window 5s
//	musuite trace -check trace-loadgen.jsonl trace-mid.jsonl trace-leaf0.jsonl
//
// <service> is hdsearch, router, setalgebra or recommend.  `serve` runs one
// tier as its own process — the paper's distributed deployment, each
// microservice on dedicated hardware; `load` drives a deployed mid-tier from
// separate hardware, closed-loop (saturation probing) or open-loop Poisson
// (tail latency), as the paper's synthetic load generators do; `topo` deploys
// and drives a declarative topology spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"musuite/internal/bench"
	"musuite/internal/topo"
)

// commands maps each subcommand to its body: it registers its flags on the
// set it is handed, parses args, and runs.  Flags two subcommands share are
// registered through internal/cmdutil, so every name has one declaration.
var commands = map[string]func(fs *flag.FlagSet, args []string) error{
	"serve": serve,
	"load":  load,
	"topo":  runTopo,
	"bench": runBench,
	"trace": runTrace,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintf(os.Stderr, "usage: musuite serve|load <%s> [flags]\n       musuite topo -topo <spec.yaml> [flags]\n       musuite bench [flags]\n       musuite trace [flags] trace.jsonl...\n",
			strings.Join(topo.RegisteredKinds(), "|"))
		os.Exit(2)
	}
	name := "musuite " + os.Args[1]
	if err := commands[os.Args[1]](flag.NewFlagSet(name, flag.ExitOnError), os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// serviceFlags resolves the <service> argument and registers what serve and
// load share: the dataset seed, the shard count, and the service's sizing
// flags, generated from its definition (bench.Param).
func serviceFlags(fs *flag.FlagSet, args []string) (*bench.Service, *bench.Scale, error) {
	var svc *bench.Service
	if len(args) > 0 {
		svc = bench.ServiceByKind(args[0])
	}
	if svc == nil {
		return nil, nil, fmt.Errorf("usage: %s <%s> [flags]", fs.Name(), strings.Join(topo.RegisteredKinds(), "|"))
	}
	s := bench.SmallScale()
	const match = "; must match on every tier and the load generator"
	fs.Int64Var(&s.Seed, "seed", s.Seed, "dataset seed"+match)
	fs.IntVar(&s.Shards, "shards", s.Shards, "leaf shards of the deployment: per-shard stop lists and models make replies depend on it (router: unused, its leaf count is len(-leaves))"+match)
	for _, p := range svc.Params {
		fs.IntVar(p.Field(&s), p.Name, *p.Field(&s), p.Help+match)
	}
	return svc, &s, nil
}
