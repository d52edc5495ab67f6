package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"musuite/internal/telemetry"
)

// WriteTSV writes the experiment data as tab-separated files under dir (one
// per figure), the raw material for regenerating the paper's plots with any
// plotting tool.  Files: fig9.tsv, fig10.tsv, fig11to14.tsv, fig15to18.tsv,
// fig19.tsv.  Either argument may be nil/empty to skip its files.
func WriteTSV(dir string, fig9 []Fig9Row, points []LoadPoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: creating %s: %w", dir, err)
	}
	write := func(name string, build func(*strings.Builder)) error {
		var b strings.Builder
		build(&b)
		return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
	}

	if len(fig9) > 0 {
		if err := write("fig9.tsv", func(b *strings.Builder) {
			b.WriteString("service\tthroughput_qps\trel_stddev\tconcurrency\n")
			for _, r := range fig9 {
				fmt.Fprintf(b, "%s\t%.1f\t%.4f\t%d\n", r.Service, r.Throughput, r.RelStdDev, r.Concurrency)
			}
		}); err != nil {
			return err
		}
	}
	if len(points) == 0 {
		return nil
	}

	if err := write("fig10.tsv", func(b *strings.Builder) {
		b.WriteString("service\tload_qps\tcount\tp50_ns\tp99_ns\tp999_ns\tmax_ns\n")
		for _, p := range points {
			v := p.Violin
			fmt.Fprintf(b, "%s\t%g\t%d\t%d\t%d\t%d\t%d\n",
				p.Service, p.Load, v.Count, v.Median, v.P99, v.P999, v.Max)
		}
	}); err != nil {
		return err
	}

	if err := write("fig11to14.tsv", func(b *strings.Builder) {
		b.WriteString("service\tload_qps\tsyscall\tcalls_per_query\n")
		for _, p := range points {
			for _, sys := range telemetry.Syscalls() {
				if v := p.PerQuery(sys); v > 0 {
					fmt.Fprintf(b, "%s\t%g\t%s\t%.4f\n", p.Service, p.Load, sys.Name(), v)
				}
			}
		}
	}); err != nil {
		return err
	}

	if err := write("fig15to18.tsv", func(b *strings.Builder) {
		b.WriteString("service\tload_qps\tclass\tcount\tp50_ns\tp99_ns\tmax_ns\n")
		for _, p := range points {
			for _, o := range telemetry.Overheads() {
				snap := p.Overheads[o]
				if snap.Count == 0 {
					continue
				}
				fmt.Fprintf(b, "%s\t%g\t%s\t%d\t%d\t%d\t%d\n",
					p.Service, p.Load, o, snap.Count, snap.Median, snap.P99, snap.Max)
			}
		}
	}); err != nil {
		return err
	}

	return write("fig19.tsv", func(b *strings.Builder) {
		b.WriteString("service\tload_qps\tcontext_switches\thitm\ttcp_retransmits\n")
		for _, p := range points {
			fmt.Fprintf(b, "%s\t%g\t%d\t%d\t%d\n", p.Service, p.Load,
				p.Counters[telemetry.CtxSwitch], p.Counters[telemetry.HITM], p.Counters[telemetry.TCPRetransmit])
		}
	})
}
