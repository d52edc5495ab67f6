// Package topo is the declarative topology runtime: it parses a YAML
// topology spec describing an arbitrary DAG of services — synthetic
// compute/cache/store tiers and the four registered μSuite benchmarks —
// and instantiates it over the core mid-tier/leaf framework, so every
// piece of machinery the framework grew (per-edge tail tolerance and
// batching, admission control, RCU shard maps, distributed tracing)
// composes over spec-defined topologies instead of hardwired ones.
package topo

import (
	"fmt"
	"strings"
)

// The repo carries zero third-party dependencies, so the spec format is a
// strict, hand-parsed YAML subset: block mappings and sequences indented
// with spaces, "- " sequence items (inline mappings allowed on the dash
// line), flow collections ({k: v}, [a, b]), single- and double-quoted
// scalars, and # comments.  Everything decodes to map[string]any /
// []any / string; typed conversion happens in the tag-driven decoder
// (spec.go's decode).  Duplicate keys, tab indentation, and structural
// ambiguity are errors — a config language that guesses is worse than one
// that refuses.

// DecodeYAML parses src into nested map[string]any / []any / string
// values.  An empty document decodes to nil.
func DecodeYAML(src []byte) (any, error) {
	p := &yamlParser{}
	if err := p.split(string(src)); err != nil {
		return nil, err
	}
	if len(p.lines) == 0 {
		return nil, nil
	}
	v, err := p.parseNode(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("yaml: line %d: unexpected content %q after document", l.num, l.text)
	}
	return v, nil
}

// yamlLine is one significant source line: indentation width, content with
// the comment stripped, and the 1-based source line number for errors.
type yamlLine struct {
	indent int
	text   string
	num    int
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// split preprocesses the source into significant lines, rejecting tab
// indentation and stripping comments outside quotes.
func (p *yamlParser) split(src string) error {
	for num, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return fmt.Errorf("yaml: line %d: tab indentation is not allowed", num+1)
		}
		text := stripComment(line[indent:])
		text = strings.TrimRight(text, " ")
		if text == "" {
			continue
		}
		if indent == 0 && (text == "---" || text == "...") {
			continue
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: text, num: num + 1})
	}
	return nil
}

// stripComment removes a trailing "# ..." comment that is not inside a
// quoted scalar.  A # must start the line or follow whitespace to open a
// comment, matching YAML's rule.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

func (p *yamlParser) more() bool { return p.pos < len(p.lines) }

// parseNode parses one block value whose lines are indented at least
// minIndent; the first such line fixes the block's own indentation.
func (p *yamlParser) parseNode(minIndent int) (any, error) {
	if !p.more() || p.lines[p.pos].indent < minIndent {
		return nil, nil
	}
	line := p.lines[p.pos]
	if line.text == "-" || strings.HasPrefix(line.text, "- ") {
		return p.parseSequence(line.indent)
	}
	if _, _, ok := splitKeyValue(line.text); ok {
		return p.parseMapping(line.indent)
	}
	// A bare scalar document/value: exactly one line.
	p.pos++
	v, err := parseFlowValue(line.text, line.num)
	if err != nil {
		return nil, err
	}
	if p.more() && p.lines[p.pos].indent >= minIndent {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("yaml: line %d: unexpected continuation after scalar", l.num)
	}
	return v, nil
}

// parseMapping parses consecutive "key: value" lines at exactly indent.
func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := make(map[string]any)
	for p.more() {
		line := p.lines[p.pos]
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indentation", line.num)
		}
		if line.text == "-" || strings.HasPrefix(line.text, "- ") {
			return nil, fmt.Errorf("yaml: line %d: sequence item inside mapping", line.num)
		}
		rawKey, rest, ok := splitKeyValue(line.text)
		if !ok {
			return nil, fmt.Errorf("yaml: line %d: expected \"key: value\", got %q", line.num, line.text)
		}
		key, err := unquoteScalar(rawKey, line.num)
		if err != nil {
			return nil, err
		}
		if key == "" {
			return nil, fmt.Errorf("yaml: line %d: empty mapping key", line.num)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", line.num, key)
		}
		p.pos++
		var v any
		if rest == "" {
			if p.more() && p.lines[p.pos].indent > indent {
				v, err = p.parseNode(indent + 1)
				if err != nil {
					return nil, err
				}
			}
			// Else: an explicitly empty value, decoded as nil.
		} else {
			v, err = parseFlowValue(rest, line.num)
			if err != nil {
				return nil, err
			}
		}
		m[key] = v
	}
	return m, nil
}

// parseSequence parses consecutive "- item" lines at exactly indent.  An
// inline mapping may start on the dash line; its continuation lines must be
// indented two columns past the dash (the "- " width), the conventional
// YAML layout.
func (p *yamlParser) parseSequence(indent int) (any, error) {
	seq := []any{}
	for p.more() {
		line := p.lines[p.pos]
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indentation", line.num)
		}
		if line.text != "-" && !strings.HasPrefix(line.text, "- ") {
			return nil, fmt.Errorf("yaml: line %d: expected sequence item", line.num)
		}
		item := strings.TrimPrefix(strings.TrimPrefix(line.text, "-"), " ")
		if item == "" {
			// A nested block value on the following, deeper-indented lines.
			p.pos++
			v, err := p.parseNode(indent + 1)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		if _, _, ok := splitKeyValue(item); ok && item[0] != '{' && item[0] != '[' {
			// An inline mapping opening on the dash line: rewrite this line
			// as its first entry at the item indentation and parse the
			// mapping block from here.
			p.lines[p.pos] = yamlLine{indent: indent + 2, text: item, num: line.num}
			v, err := p.parseMapping(indent + 2)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		p.pos++
		v, err := parseFlowValue(item, line.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

// splitKeyValue splits "key: value" (or "key:") at the first unquoted
// colon that ends the key.  ok is false when the text is a plain scalar.
func splitKeyValue(s string) (key, value string, ok bool) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':':
			if i+1 == len(s) {
				return strings.TrimSpace(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return "", "", false
}

// parseFlowValue parses an inline value: a flow mapping, flow sequence, or
// scalar.
func parseFlowValue(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s[0] == '{' || s[0] == '[' {
		f := &flowParser{src: s, num: num}
		v, err := f.value()
		if err != nil {
			return nil, err
		}
		f.skipSpace()
		if f.pos != len(f.src) {
			return nil, fmt.Errorf("yaml: line %d: trailing characters after flow value", num)
		}
		return v, nil
	}
	return unquoteScalar(s, num)
}

// unquoteScalar strips matching quotes from a scalar; plain scalars pass
// through verbatim (typed conversion is the spec layer's job).
func unquoteScalar(s string, num int) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[len(s)-1] != s[0] {
			return "", fmt.Errorf("yaml: line %d: unterminated quoted scalar %q", num, s)
		}
		inner := s[1 : len(s)-1]
		if strings.IndexByte(inner, s[0]) >= 0 {
			return "", fmt.Errorf("yaml: line %d: stray quote inside quoted scalar %q", num, s)
		}
		return inner, nil
	}
	if len(s) == 1 && (s[0] == '\'' || s[0] == '"') {
		return "", fmt.Errorf("yaml: line %d: unterminated quoted scalar %q", num, s)
	}
	return s, nil
}

// flowParser parses inline {k: v, ...} and [a, b, ...] collections.
type flowParser struct {
	src string
	num int
	pos int
}

func (f *flowParser) skipSpace() {
	for f.pos < len(f.src) && f.src[f.pos] == ' ' {
		f.pos++
	}
}

func (f *flowParser) value() (any, error) {
	f.skipSpace()
	if f.pos >= len(f.src) {
		return nil, fmt.Errorf("yaml: line %d: unexpected end of flow value", f.num)
	}
	switch f.src[f.pos] {
	case '{':
		return f.mapping()
	case '[':
		return f.sequence()
	default:
		return f.scalar()
	}
}

func (f *flowParser) mapping() (any, error) {
	f.pos++ // '{'
	m := make(map[string]any)
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == '}' {
		f.pos++
		return m, nil
	}
	for {
		f.skipSpace()
		rawKey, err := f.scalarUntil(":,}]")
		if err != nil {
			return nil, err
		}
		if f.pos >= len(f.src) || f.src[f.pos] != ':' {
			return nil, fmt.Errorf("yaml: line %d: expected ':' in flow mapping", f.num)
		}
		f.pos++ // ':'
		key, err := unquoteScalar(rawKey, f.num)
		if err != nil {
			return nil, err
		}
		if key == "" {
			return nil, fmt.Errorf("yaml: line %d: empty flow mapping key", f.num)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", f.num, key)
		}
		v, err := f.value()
		if err != nil {
			return nil, err
		}
		m[key] = v
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, fmt.Errorf("yaml: line %d: unterminated flow mapping", f.num)
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case '}':
			f.pos++
			return m, nil
		default:
			return nil, fmt.Errorf("yaml: line %d: expected ',' or '}' in flow mapping", f.num)
		}
	}
}

func (f *flowParser) sequence() (any, error) {
	f.pos++ // '['
	seq := []any{}
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == ']' {
		f.pos++
		return seq, nil
	}
	for {
		v, err := f.value()
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, fmt.Errorf("yaml: line %d: unterminated flow sequence", f.num)
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case ']':
			f.pos++
			return seq, nil
		default:
			return nil, fmt.Errorf("yaml: line %d: expected ',' or ']' in flow sequence", f.num)
		}
	}
}

// scalar parses a flow scalar terminated by a flow delimiter.
func (f *flowParser) scalar() (any, error) {
	raw, err := f.scalarUntil(",}]")
	if err != nil {
		return nil, err
	}
	return unquoteScalar(raw, f.num)
}

// scalarUntil consumes characters up to (not including) the first unquoted
// byte in stops, returning the raw text with quotes intact.
func (f *flowParser) scalarUntil(stops string) (string, error) {
	start := f.pos
	if f.pos < len(f.src) && (f.src[f.pos] == '\'' || f.src[f.pos] == '"') {
		quote := f.src[f.pos]
		f.pos++
		for f.pos < len(f.src) && f.src[f.pos] != quote {
			f.pos++
		}
		if f.pos >= len(f.src) {
			return "", fmt.Errorf("yaml: line %d: unterminated quoted scalar", f.num)
		}
		f.pos++ // closing quote
		return f.src[start:f.pos], nil
	}
	for f.pos < len(f.src) && strings.IndexByte(stops, f.src[f.pos]) < 0 {
		f.pos++
	}
	s := strings.TrimSpace(f.src[start:f.pos])
	if s == "" {
		return "", fmt.Errorf("yaml: line %d: empty flow scalar", f.num)
	}
	return s, nil
}
