package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpans is a fixed span set covering every exported field: three
// traces, both kinds, notes, errors, a stage record, and out-of-order input
// (WriteSpans must sort deterministically).  The hdsearch-mid server span is
// as files written before the typed stage record existed have it — segments
// as notes, no "stages" field — and its fixture line is from such a file.
func goldenSpans() []Span {
	return []Span{
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x2, ParentID: 0x1,
			Name: "hdsearch.leafknn", Kind: KindClient, Service: "hdsearch-mid",
			Start: 1700000000000001000, Duration: 250000,
			Notes: []string{"hedge", "abandoned", "shard=1"}},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x1,
			Name: "hdsearch.search", Kind: KindClient, Service: "loadgen",
			Start: 1700000000000000000, Duration: 1000000},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x3, ParentID: 0x1,
			Name: "hdsearch.search", Kind: KindServer, Service: "hdsearch-mid",
			Start: 1700000000000050000, Duration: 800000,
			Notes: []string{"queue=10µs", "compute=79µs"}},
		{TraceID: 0x0123456789abcdef, SpanID: 0x4,
			Name: "router.get", Kind: KindServer, Service: "router-leaf",
			Start: 1699999999999000000, Duration: 42000, Err: "shed"},
		{TraceID: 0xfeedfacefeedface, SpanID: 0x5, ParentID: 0x6,
			Name: "setalgebra.search", Kind: KindServer, Service: "setalgebra-mid",
			Start: 1700000000000200000, Duration: 640000,
			Stages: &Stages{Queue: 10000, Compute: 79000, LeafWait: 500000, Merge: 12000}},
	}
}

// TestGoldenExport pins the export format byte-for-byte against a committed
// fixture: field names, hex IDs, integer timestamps, and sort order are all
// compatibility surface — replayers and external tooling parse these files,
// so any byte difference here is a format break, not a refactor.
func TestGoldenExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export format drifted from golden fixture (run with -update only for a deliberate format change)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Round trip: the fixture decodes, and re-encoding the decoded spans
	// reproduces the fixture exactly.
	decoded, err := ReadSpans(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(goldenSpans()) {
		t.Fatalf("decoded %d spans, want %d", len(decoded), len(goldenSpans()))
	}
	for _, d := range decoded {
		switch d.SpanID {
		case 0x3: // the pre-change line
			if d.Stages != nil || !d.HasNote("queue=10µs") || !d.HasNote("compute=79µs") {
				t.Fatalf("pre-change stage notes decoded as %+v", d)
			}
		case 0x5:
			if d.Stages == nil || *d.Stages != *goldenSpans()[4].Stages {
				t.Fatalf("stage record decoded as %+v", d.Stages)
			}
		default:
			if d.Stages != nil {
				t.Fatalf("span %x grew a stage record: %+v", uint64(d.SpanID), d.Stages)
			}
		}
	}
	var again bytes.Buffer
	if err := WriteSpans(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("re-encode of decoded fixture differs:\n%s", again.Bytes())
	}
}

// TestDecodeIgnoresUnknownFields pins forward compatibility: later format
// revisions may ADD fields, and current readers must skip them.
func TestDecodeIgnoresUnknownFields(t *testing.T) {
	line := `{"trace":"00000000000000aa","span":"00000000000000bb","name":"x","start":5,"dur":7,"future_field":"ignore me","another":[1,2,3]}`
	s, err := DecodeSpan([]byte(line))
	if err != nil {
		t.Fatalf("unknown fields rejected: %v", err)
	}
	if s.TraceID != 0xaa || s.SpanID != 0xbb || s.Name != "x" || s.Start != 5 || s.Duration != 7 {
		t.Fatalf("decoded %+v", s)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		`{`,
		`{}`,
		`{"trace":"0000000000000001","name":"x","start":1,"dur":1}`,                            // no span id
		`{"trace":"0000000000000001","span":"0000000000000002","start":1,"dur":1}`,             // no name
		`{"trace":"0000000000000001","span":"0000000000000002","name":"x","start":1,"dur":-1}`, // negative duration
		`{"trace":"zzzz","span":"0000000000000002","name":"x","start":1,"dur":1}`,              // bad hex id
		`{"trace":"0000000000000000","span":"0000000000000002","name":"x","start":1,"dur":1}`,  // zero trace id
	} {
		if _, err := DecodeSpan([]byte(line)); err == nil {
			t.Errorf("malformed line accepted: %s", line)
		}
	}
}

// TestReadSpansReportsLineNumbers checks a malformed mid-stream line aborts
// the import with its position.
func TestReadSpansReportsLineNumbers(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\nnot json\n")
	_, err := ReadSpans(&buf)
	if err == nil || !strings.Contains(err.Error(), "line 7") {
		t.Fatalf("err = %v, want line-7 position", err)
	}
}

// FuzzTraceDecode fuzzes the span-line decoder: any line that decodes must
// survive an encode/decode round trip unchanged, and no input may panic.
func FuzzTraceDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, goldenSpans()); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trace":12,"span":34,"name":"n","start":1,"dur":0}`)) // decimal IDs
	f.Add([]byte(`{"trace":"0", "span":"1","name":"x","start":-1,"dur":1,"notes":[""]}`))
	f.Add([]byte(`{"trace":"1","span":"1","name":"x","start":1,"dur":1,"stages":{}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		s, err := DecodeSpan(line)
		if err != nil {
			return
		}
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("decoded span does not re-marshal: %v", err)
		}
		s2, err := DecodeSpan(b)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", b, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed span:\n%+v\n%+v", s, s2)
		}
	})
}
