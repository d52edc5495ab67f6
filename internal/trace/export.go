package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// JSONL trace export/import.  One span per line, stable field names, IDs as
// 16-hex-digit strings, timestamps as integer Unix nanoseconds.  Decoding
// ignores unknown fields, so the format is forward compatible: fields may
// be ADDED in later revisions, never renamed or removed — the golden-file
// test in export_test.go pins that contract.

// maxExportLine bounds one encoded span line on import.
const maxExportLine = 1 << 20

// WriteSpans encodes spans as JSONL onto w, ordered by (trace, start, span)
// so exports are deterministic given the same span set.
func WriteSpans(w io.Writer, spans []Span) error {
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := &ordered[i], &ordered[j]
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.SpanID < b.SpanID
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range ordered {
		if err := enc.Encode(&ordered[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes spans as JSONL to path.
func WriteFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeSpan decodes and validates one exported span line.
func DecodeSpan(line []byte) (Span, error) {
	var s Span
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&s); err != nil {
		return Span{}, err
	}
	if err := s.validate(); err != nil {
		return Span{}, err
	}
	if len(s.Notes) == 0 {
		// A present-but-empty notes array and an absent one are the same
		// span; normalize so decode→encode→decode is an exact round trip
		// (omitempty drops the empty slice on re-encode).
		s.Notes = nil
	}
	return s, nil
}

func (s *Span) validate() error {
	switch {
	case s.TraceID == 0:
		return fmt.Errorf("trace: span missing trace id")
	case s.SpanID == 0:
		return fmt.Errorf("trace: span missing span id")
	case s.Name == "":
		return fmt.Errorf("trace: span missing name")
	case s.Duration < 0:
		return fmt.Errorf("trace: span %016x has negative duration", uint64(s.SpanID))
	}
	return nil
}

// ReadSpans decodes a JSONL span stream.  Blank lines are skipped; any
// malformed line aborts with its line number.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxExportLine)
	var spans []Span
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		s, err := DecodeSpan(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// ReadFile reads a JSONL span file.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := ReadSpans(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}
