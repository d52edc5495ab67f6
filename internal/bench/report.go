package bench

import (
	"fmt"
	"sort"
	"strings"

	"musuite/internal/telemetry"
)

// RenderTableII prints the testbed description (the Table II analog).
func RenderTableII(h HostInfo) string {
	var b strings.Builder
	b.WriteString("Table II analog: experiment host\n")
	fmt.Fprintf(&b, "  Go version       %s\n", h.GoVersion)
	fmt.Fprintf(&b, "  OS / Arch        %s / %s\n", h.OS, h.Arch)
	fmt.Fprintf(&b, "  Logical CPUs     %d\n", h.CPUs)
	b.WriteString("  (paper: 2×20-core Skylake, 64 GB, 10 Gbit/s, Linux 4.13)\n")
	return b.String()
}

// RenderFig9 prints the saturation-throughput bars of Fig. 9.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Fig. 9: saturation throughput (QPS)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %10.0f QPS  (at closed-loop concurrency %d", r.Service, r.Throughput, r.Concurrency)
		if r.RelStdDev > 0 {
			fmt.Fprintf(&b, ", ±%.1f%% over trials", r.RelStdDev*100)
		}
		b.WriteString(")\n")
		fmt.Fprintf(&b, "  %-11s %10.0f QPS  (MaxBatch 16: %.2fx, %.1f leaf calls a carrier)\n", "", r.Batched, r.Batched/r.Throughput, r.Occupancy)
	}
	b.WriteString("  paper (40-core testbed): HDSearch ~11.5K, Router ~12K, SetAlgebra ~16.5K, Recommend ~13K\n")
	return b.String()
}

// RenderFig10 prints the end-to-end latency violins of Fig. 10.
func RenderFig10(points []LoadPoint) string {
	var b strings.Builder
	b.WriteString("Fig. 10: end-to-end response latency distribution vs load\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %s\n", p.Violin.String())
	}
	b.WriteString(renderMedianInversion(points))
	return b.String()
}

// renderMedianInversion reports the §VI-B claim: median latency at the
// lowest load exceeds the median at the middle load (up to 1.45× in the
// paper) because low load parks threads longer.
func renderMedianInversion(points []LoadPoint) string {
	byService := make(map[string][]LoadPoint)
	var order []string
	for _, p := range points {
		if _, ok := byService[p.Service]; !ok {
			order = append(order, p.Service)
		}
		byService[p.Service] = append(byService[p.Service], p)
	}
	var b strings.Builder
	b.WriteString("  §VI-B low-load median inflation (median@lowest / median@middle):\n")
	for _, svc := range order {
		pts := byService[svc]
		if len(pts) < 2 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Load < pts[j].Load })
		lo, mid := pts[0].Violin.Median, pts[1].Violin.Median
		if mid <= 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-11s %.2fx (paper reports up to 1.45x)\n", svc, float64(lo)/float64(mid))
	}
	return b.String()
}

// RenderFig11to14 prints the per-service syscall-invocation breakdowns of
// Figs. 11–14 (counts per completed query, i.e. per QPS over the window).
func RenderFig11to14(points []LoadPoint) string {
	byService := make(map[string][]LoadPoint)
	var order []string
	for _, p := range points {
		if _, ok := byService[p.Service]; !ok {
			order = append(order, p.Service)
		}
		byService[p.Service] = append(byService[p.Service], p)
	}
	var b strings.Builder
	b.WriteString("Figs. 11-14: OS system call invocations per query (mid-tier)\n")
	for _, svc := range order {
		pts := byService[svc]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Load < pts[j].Load })
		fmt.Fprintf(&b, "  %s:\n", svc)
		fmt.Fprintf(&b, "    %-12s", "syscall")
		for _, p := range pts {
			fmt.Fprintf(&b, " load=%-8g", p.Load)
		}
		b.WriteString("\n")
		for _, sys := range telemetry.Syscalls() {
			any := false
			for _, p := range pts {
				if p.PerQuery(sys) > 0 {
					any = true
				}
			}
			if !any {
				continue
			}
			fmt.Fprintf(&b, "    %-12s", sys.Name())
			for _, p := range pts {
				fmt.Fprintf(&b, " %-13.2f", p.PerQuery(sys))
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("  (paper: futex dominates every service, with more calls per query at low load)\n")
	return b.String()
}

// RenderFig15to18 prints the OS-overhead latency breakdowns of Figs. 15–18.
func RenderFig15to18(points []LoadPoint) string {
	var b strings.Builder
	b.WriteString("Figs. 15-18: OS overhead latency breakdown (mid-tier, per class)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %s @ %g QPS:\n", p.Service, p.Load)
		for _, o := range telemetry.Overheads() {
			snap := p.Overheads[o]
			if snap.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-11s p50=%-12v p99=%-12v max=%-12v (n=%d)\n",
				o.String(), snap.Median, snap.P99, snap.Max, snap.Count)
		}
	}
	b.WriteString("  (paper: Active-Exe — thread wakeup to execution — dominates mid-tier tails,\n")
	b.WriteString("   contributing up to ~50% HDSearch, ~75% Router, ~87% SetAlgebra, ~64% Recommend)\n")
	return b.String()
}

// RenderFig19 prints the context-switch / contention counts of Fig. 19.
func RenderFig19(points []LoadPoint) string {
	var b strings.Builder
	b.WriteString("Fig. 19: context switches (CS) and lock contention (HITM proxies) per window\n")
	fmt.Fprintf(&b, "  %-11s %-10s %-12s %-12s %-10s\n", "service", "load", "CS", "HITM", "tcp-retx")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-11s %-10g %-12d %-12d %-10d\n", p.Service, p.Load,
			p.Counters[telemetry.CtxSwitch], p.Counters[telemetry.HITM], p.Counters[telemetry.TCPRetransmit])
	}
	b.WriteString("  (paper: both rise with load; HITM > CS; TCP retransmissions single-digit)\n")
	return b.String()
}

// RenderAblation prints the §VII framework-variant comparison.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("§VII ablation: blocking-vs-polling and dispatch-vs-in-line\n")
	fmt.Fprintf(&b, "  %-11s %-22s %-12s %-12s %-10s %-8s\n",
		"service", "variant", "p50", "p99", "futex/q", "cs/q")
	for _, r := range rows {
		variant := fmt.Sprintf("%s+%s", r.Dispatch, r.Wait)
		fmt.Fprintf(&b, "  %-11s %-22s %-12v %-12v %-10.2f %-8.2f\n",
			r.Service, variant, r.Median, r.P99, r.Futex, r.CSPerQ)
	}
	return b.String()
}
