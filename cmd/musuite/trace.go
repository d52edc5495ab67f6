package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"musuite/internal/trace"
)

// runTrace inspects exported μSuite traces (JSONL span files).  Multiple
// input files merge into one span set, so the per-process exports of a
// distributed deployment — the load generator's root spans plus each tier's
// server and attempt spans — reassemble into complete trees.
//
//	musuite trace trace-loadgen.jsonl trace-mid.jsonl trace-leaf0.jsonl
//	musuite trace -dump 3 trace.jsonl
//	musuite trace -check -min-traces 10 -require-note abandoned trace-*.jsonl
//
// With -check it is a CI gate: it fails unless every trace forms one
// connected tree whose critical-path segments sum to the recorded end-to-end
// latency within -tolerance, and every mid-tier server span that answered
// carries a stage record accounting for no more than its duration.
func runTrace(fs *flag.FlagSet, args []string) error {
	var (
		check     = fs.Bool("check", false, "validate the traces and exit non-zero on violations")
		tolerance = fs.Duration("tolerance", 0, "check: allowed |critical-path sum − end-to-end| slack per trace")
		minTraces = fs.Int("min-traces", 1, "check: fail unless at least this many connected traces exist")
		notes     = fs.String("require-note", "", "check: comma-separated notes that must each appear on some span (e.g. abandoned,hedge)")
		dump      = fs.Int("dump", 0, "pretty-print the first N trees")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("usage: musuite trace [flags] trace.jsonl...")
	}

	var spans []trace.Span
	for _, path := range fs.Args() {
		part, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		spans = append(spans, part...)
	}
	trees := trace.BuildTrees(spans)

	fmt.Print(trace.Summarize(trees).String())
	for i, t := range trees {
		if i >= *dump {
			break
		}
		dumpTree(t)
	}

	if *check {
		if err := checkTraces(trees, spans, *tolerance, *minTraces, *notes); err != nil {
			return err
		}
		fmt.Printf("check ok: %d traces validated\n", len(trees))
	}
	return nil
}

// checkTraces enforces the CI-smoke invariants over the merged span set.
func checkTraces(trees []*trace.Tree, spans []trace.Span, tolerance time.Duration, minTraces int, notes string) error {
	connected := 0
	for _, t := range trees {
		if !t.Connected() {
			return fmt.Errorf("trace %016x is not connected: %d spans, %d roots",
				uint64(t.TraceID), len(t.Spans), len(t.Roots))
		}
		connected++
		path := t.CriticalPath()
		if len(path) == 0 {
			return fmt.Errorf("trace %016x has an empty critical path", uint64(t.TraceID))
		}
		got, want := trace.PathTotal(path), t.EndToEnd()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > tolerance {
			return fmt.Errorf("trace %016x: critical path sums to %v, end-to-end is %v (|diff| %v > tolerance %v)",
				uint64(t.TraceID), got, want, diff, tolerance)
		}
		for _, root := range t.Roots {
			if err := checkStages(root); err != nil {
				return fmt.Errorf("trace %016x: %v", uint64(t.TraceID), err)
			}
		}
	}
	if connected < minTraces {
		return fmt.Errorf("only %d connected traces, need at least %d", connected, minTraces)
	}
	for _, note := range strings.Split(notes, ",") {
		note = strings.TrimSpace(note)
		if note == "" {
			continue
		}
		found := false
		for i := range spans {
			if spans[i].HasNote(note) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no span carries required note %q", note)
		}
	}
	return nil
}

// checkStages walks a tree for the stage record, the one per-request account
// of where a mid-tier's time went.  A server span with calls under it is a
// mid-tier's: unless the request failed (a shed never reaches the handler) it
// must carry the record, and no record may claim more than its span lasted.
func checkStages(n *trace.Node) error {
	s := &n.Span
	if s.Stages == nil && s.Kind == trace.KindServer && s.Err == "" && len(n.Children) > 0 {
		return fmt.Errorf("mid-tier server span %016x (%s) has no stage record", uint64(s.SpanID), s.Name)
	}
	if s.Stages != nil && s.Stages.Sum() > time.Duration(s.Duration) {
		return fmt.Errorf("server span %016x (%s): stages %s exceed its duration %v",
			uint64(s.SpanID), s.Name, s.Stages, time.Duration(s.Duration))
	}
	for _, c := range n.Children {
		if err := checkStages(c); err != nil {
			return err
		}
	}
	return nil
}

// dumpTree pretty-prints one trace as an indented tree, children in start
// order, with durations, services, and annotations inline.
func dumpTree(t *trace.Tree) {
	fmt.Printf("\ntrace %016x  e2e=%v  spans=%d\n",
		uint64(t.TraceID), t.EndToEnd().Round(time.Microsecond), len(t.Spans))
	base := int64(0)
	if r := t.Root(); r != nil {
		base = r.Span.Start
	}
	for _, root := range t.Roots {
		dumpNode(root, base, 1)
	}
}

func dumpNode(n *trace.Node, base int64, depth int) {
	s := &n.Span
	line := fmt.Sprintf("%s%-6s %s  +%v %v",
		strings.Repeat("  ", depth), s.Kind, s.Name,
		time.Duration(s.Start-base).Round(time.Microsecond),
		time.Duration(s.Duration).Round(time.Microsecond))
	if s.Service != "" {
		line += "  [" + s.Service + "]"
	}
	if len(s.Notes) > 0 {
		line += "  " + strings.Join(s.Notes, " ")
	}
	if s.Stages != nil {
		line += "  " + s.Stages.String()
	}
	if s.Err != "" {
		line += "  err=" + s.Err
	}
	fmt.Println(line)
	for _, c := range n.Children {
		dumpNode(c, base, depth+1)
	}
}
