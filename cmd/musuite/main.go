// Command musuite is the suite's one service binary.  Each subcommand
// stands up a piece of a deployment from the service's single definition
// (internal/bench), so the tiers, the load generator and a topology spec
// given the same sizes and seed agree on the dataset without shipping files:
//
//	musuite serve <service> -role leaf    -addr :7101 -shard 0 -shards 4
//	musuite serve <service> -role midtier -addr :7100 -leaves h1:7101,...,h4:7104 -shards 4
//	musuite load  <service> -target host:7100 -mode open -qps 1000 -duration 30s
//	musuite topo  -topo examples/social-network.yaml
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch args := os.Args[2:]; os.Args[1] {
	case "serve":
		err = serve(args)
	case "load":
		err = load(args)
	case "topo":
		err = runTopo(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "musuite:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: musuite serve|load <%s> [flags]\n       musuite topo -topo <spec.yaml> [flags]\n",
		strings.Join(topo.RegisteredKinds(), "|"))
	os.Exit(2)
}

// serviceFlags resolves the <service> argument and starts the subcommand's
// flag set with what serve and load share: the dataset seed, and the
// service's sizing flags, generated from its definition (bench.Param).
func serviceFlags(cmd string, args []string) (*bench.Service, *flag.FlagSet, *bench.Scale, error) {
	var svc *bench.Service
	if len(args) > 0 {
		svc = bench.ServiceByKind(args[0])
	}
	if svc == nil {
		return nil, nil, nil, fmt.Errorf("usage: musuite %s <%s> [flags]", cmd, strings.Join(topo.RegisteredKinds(), "|"))
	}
	fs := flag.NewFlagSet("musuite "+cmd+" "+svc.Kind, flag.ExitOnError)
	s := bench.SmallScale()
	fs.Int64Var(&s.Seed, "seed", s.Seed, "dataset seed; must match on every tier and the load generator")
	for _, p := range svc.Params {
		fs.IntVar(p.Field(&s), p.Name, *p.Field(&s), p.Help+"; must match on every tier and the load generator")
	}
	return svc, fs, &s, nil
}
