package topo

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeYAMLBlockStructure(t *testing.T) {
	src := `
# a comment
topology: demo
entry: "fe"   # trailing comment
services:
  fe:
    kind: synthetic
    shards: 2
    edges:
      down: {to: leaf, timeout: 100ms}
    ops:
      q:
        calls:
          - {edge: down, method: do}
          - edge: down
            method: get
            optional: true
  leaf:
    kind: compute
list: [a, b, 'c d']
`
	got, err := DecodeYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"topology": "demo",
		"entry":    "fe",
		"services": map[string]any{
			"fe": map[string]any{
				"kind":   "synthetic",
				"shards": "2",
				"edges": map[string]any{
					"down": map[string]any{"to": "leaf", "timeout": "100ms"},
				},
				"ops": map[string]any{
					"q": map[string]any{
						"calls": []any{
							map[string]any{"edge": "down", "method": "do"},
							map[string]any{"edge": "down", "method": "get", "optional": "true"},
						},
					},
				},
			},
			"leaf": map[string]any{"kind": "compute"},
		},
		"list": []any{"a", "b", "c d"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%#v\nwant\n%#v", got, want)
	}
}

func TestDecodeYAMLSequences(t *testing.T) {
	src := `
scenario:
  - {at: 1s, target: db, slow: 2ms}
  - at: 2s
    edge: fe/down
    delay: 5ms
empty: []
emptymap: {}
`
	got, err := DecodeYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	sc := m["scenario"].([]any)
	if len(sc) != 2 {
		t.Fatalf("scenario items=%d want 2", len(sc))
	}
	if sc[1].(map[string]any)["delay"] != "5ms" {
		t.Fatalf("second item=%v", sc[1])
	}
	if len(m["empty"].([]any)) != 0 || len(m["emptymap"].(map[string]any)) != 0 {
		t.Fatalf("empty collections mis-decoded: %v", m)
	}
}

func TestDecodeYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab", "a:\n\tb: 1", "tab indentation"},
		{"dup-key", "a: 1\na: 2", "duplicate key"},
		{"dup-flow-key", "m: {a: 1, a: 2}", "duplicate key"},
		{"unterminated-quote", `a: "oops`, "unterminated"},
		{"unterminated-flow", "a: {b: 1", "unterminated flow mapping"},
		{"bad-indent", "a:\n    b: 1\n  c: 2", "unexpected indentation"},
		{"seq-in-map", "a: 1\n- b", "sequence item inside mapping"},
		{"trailing-flow", "a: [1, 2] extra", "trailing characters"},
		{"scalar-continuation", "a\nb", "unexpected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeYAML([]byte(tc.src))
			if err == nil {
				t.Fatalf("decoded %q without error", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeYAMLEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n", "# only comments\n", "---\n"} {
		v, err := DecodeYAML([]byte(src))
		if err != nil || v != nil {
			t.Fatalf("empty doc %q -> %v, %v", src, v, err)
		}
	}
}

// FuzzYAMLDecode asserts the spec front end is total: any input either
// parses — YAML, then the tag-driven decoder, then Validate — or returns an
// error, never a panic or a hang.  The example specs seed it.
func FuzzYAMLDecode(f *testing.F) {
	seeds := []string{
		"a: 1",
		"a:\n  b: c\n  d: [1, 2]",
		"s:\n  - {x: 1}\n  - y: 2\n    z: 3",
		"entry: fe\nservices:\n  fe:\n    kind: compute",
		"q: \"quoted # not comment\"",
		"m: {a: {b: [c, d]}}",
		"- 1\n- 2",
		"---\nk: v",
		"a: 'x'\nb: \"y\"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	examples, _ := filepath.Glob("../../examples/*.yaml")
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		_, _ = ParseSpec(src)
	})
}
