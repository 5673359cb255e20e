package obs

// Strict validator for the Prometheus text exposition format (the
// classic 0.0.4 dialect WriteProm emits). chirond's TestDaemonSmoke runs
// it against every live /metrics scrape, so a malformed label escape or
// a histogram missing its +Inf bucket fails the build instead of
// silently confusing a scraper. The checks go beyond line
// syntax: histogram bucket series must be cumulative-monotone, end at
// le="+Inf", and agree with their _count sample.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string            // bare metric name (no label block)
	Labels map[string]string // decoded label values
	Value  float64
}

// PromFamily groups the samples that share a bare family name, in the
// histogram sense: chiron_serve_latency_bucket/_sum/_count all belong
// to family chiron_serve_latency once TYPE declares it a histogram.
type PromFamily struct {
	Name    string
	Type    string // counter | gauge | histogram | untyped
	Help    string
	Samples []PromSample
}

// ParseProm strictly parses a classic-format exposition. It returns
// families keyed by name, or the first error with its line number.
func ParseProm(r io.Reader) (map[string]*PromFamily, error) {
	fams := map[string]*PromFamily{}
	get := func(name string) *PromFamily {
		f, ok := fams[name]
		if !ok {
			f = &PromFamily{Name: name, Type: "untyped"}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parsePromComment(line, get); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suf)
			if base != s.Name {
				if f, ok := fams[base]; ok && f.Type == "histogram" {
					fam = base
				}
				break
			}
		}
		get(fam).Samples = append(get(fam).Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

func parsePromComment(line string, get func(string) *PromFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, legal
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !promNameRe.MatchString(name) {
			return fmt.Errorf("TYPE names invalid metric %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		f := get(name)
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		f.Type = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		name := fields[2]
		if !promNameRe.MatchString(name) {
			return fmt.Errorf("HELP names invalid metric %q", name)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		if i := strings.IndexAny(strings.ReplaceAll(strings.ReplaceAll(help, `\\`, ""), `\n`, ""), "\\"); i >= 0 {
			return fmt.Errorf("HELP for %s has invalid escape", name)
		}
		get(name).Help = help
	}
	return nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		s.Name = rest[:brace]
		var err error
		rest, err = parsePromLabels(rest[brace:], s.Labels)
		if err != nil {
			return s, err
		}
	} else {
		if sp < 0 {
			return s, fmt.Errorf("sample %q has no value", line)
		}
		s.Name = rest[:sp]
		rest = rest[sp:]
	}
	if !promNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = strings.TrimLeft(rest, " ")
	// Value is the first space-separated token; a timestamp may follow.
	val := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		val = rest[:i]
		ts := strings.TrimSpace(rest[i+1:])
		if ts != "" {
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return s, fmt.Errorf("invalid timestamp %q", ts)
			}
		}
	}
	v, err := parsePromValue(val)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parsePromLabels consumes a `{k="v",...}` block (rest starts at '{')
// and returns what follows the closing brace.
func parsePromLabels(rest string, out map[string]string) (string, error) {
	rest = rest[1:] // skip '{'
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return rest, fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(rest[:eq])
		if !promLabelRe.MatchString(name) {
			return rest, fmt.Errorf("invalid label name %q", name)
		}
		rest = strings.TrimLeft(rest[eq+1:], " ")
		if !strings.HasPrefix(rest, `"`) {
			return rest, fmt.Errorf("label %s value not quoted", name)
		}
		rest = rest[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return rest, fmt.Errorf("label %s has dangling backslash", name)
				}
				i++
				switch rest[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return rest, fmt.Errorf("label %s has invalid escape \\%c", name, rest[i])
				}
				continue
			}
			if c == '"' {
				out[name] = b.String()
				rest = rest[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return rest, fmt.Errorf("label %s value unterminated", name)
		}
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		return rest, fmt.Errorf("expected ',' or '}' after label %s", name)
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}

// labelsKey renders the non-le labels of a sample as a stable grouping
// key, so one histogram family with several label sets is checked per
// series.
func labelsKey(s PromSample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// CheckProm parses an exposition and enforces the invariants WriteProm
// promises: histogram bucket series are cumulative-monotone, include a
// le="+Inf" bucket, and that bucket equals the _count sample; every
// histogram also carries a _sum. Returns the parsed families on
// success.
func CheckProm(r io.Reader) (map[string]*PromFamily, error) {
	fams, err := ParseProm(r)
	if err != nil {
		return nil, err
	}
	for name, f := range fams {
		if f.Type != "histogram" {
			continue
		}
		type hseries struct {
			buckets []PromSample
			sum     *PromSample
			count   *PromSample
		}
		series := map[string]*hseries{}
		get := func(k string) *hseries {
			h, ok := series[k]
			if !ok {
				h = &hseries{}
				series[k] = h
			}
			return h
		}
		for i := range f.Samples {
			s := f.Samples[i]
			key := labelsKey(s)
			switch s.Name {
			case name + "_bucket":
				get(key).buckets = append(get(key).buckets, s)
			case name + "_sum":
				get(key).sum = &f.Samples[i]
			case name + "_count":
				get(key).count = &f.Samples[i]
			default:
				return nil, fmt.Errorf("histogram %s has stray sample %s", name, s.Name)
			}
		}
		for key, h := range series {
			where := name
			if key != "" {
				where = name + "{" + key + "}"
			}
			if len(h.buckets) == 0 {
				return nil, fmt.Errorf("histogram %s has no buckets", where)
			}
			prev := -1.0
			var infCount float64
			sawInf := false
			for _, b := range h.buckets {
				le, ok := b.Labels["le"]
				if !ok {
					return nil, fmt.Errorf("histogram %s bucket missing le label", where)
				}
				if b.Value < prev {
					return nil, fmt.Errorf("histogram %s buckets not cumulative at le=%s", where, le)
				}
				prev = b.Value
				if le == "+Inf" {
					sawInf = true
					infCount = b.Value
				}
			}
			if !sawInf {
				return nil, fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", where)
			}
			if h.count == nil {
				return nil, fmt.Errorf("histogram %s missing _count", where)
			}
			if h.sum == nil {
				return nil, fmt.Errorf("histogram %s missing _sum", where)
			}
			if h.count.Value != infCount {
				return nil, fmt.Errorf("histogram %s _count %g != +Inf bucket %g", where, h.count.Value, infCount)
			}
		}
	}
	return fams, nil
}
