package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets is the default latency histogram layout, spanning the
// microsecond dispatch costs through multi-second cold workflows.
func DefBuckets() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
	}
}

// Exemplar links one histogram bucket to a retained trace: the flight
// recorder stamps the bucket a kept request landed in, so a latency
// spike in /metrics points straight at a fetchable trace id.
type Exemplar struct {
	TraceID uint64
	Value   float64 // observed value in seconds
}

// Histogram is a fixed-bucket latency histogram. Buckets hold counts of
// observations at or below their upper bound (cumulative on export, per
// the Prometheus convention); observation is lock-free.
type Histogram struct {
	bounds    []time.Duration // ascending upper bounds
	counts    []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum       atomic.Int64    // nanoseconds
	count     atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1, last-write-wins
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (nil means DefBuckets).
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	bounds = append([]time.Duration(nil), bounds...)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// SetExemplar attaches a trace id to the bucket d falls in. It does not
// count an observation — callers Observe first, then stamp the exemplar
// once a trace is known to be retained (exemplars must reference
// fetchable traces). Last write per bucket wins.
func (h *Histogram) SetExemplar(d time.Duration, traceID uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: d.Seconds()})
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile approximates the q-quantile from bucket counts: the upper
// bound of the bucket where the cumulative count crosses q (an upper
// bound of the true quantile, exact to bucket resolution).
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // +Inf bucket: report the top bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// DefSizeBuckets is the default datagram/payload size histogram layout
// (bytes), spanning a bare header through a jumbo-free MTU.
func DefSizeBuckets() []int64 {
	return []int64{32, 64, 128, 256, 512, 1024, 1200, 1500}
}

// IntHistogram is a fixed-bucket histogram over plain integers (byte
// counts, queue depths) — the duration-typed Histogram's unit-free twin.
// Buckets hold counts of observations at or below their upper bound;
// observation is lock-free.
type IntHistogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewIntHistogram returns a histogram over the given ascending upper
// bounds (nil means DefSizeBuckets).
func NewIntHistogram(bounds []int64) *IntHistogram {
	if len(bounds) == 0 {
		bounds = DefSizeBuckets()
	}
	bounds = append([]int64(nil), bounds...)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &IntHistogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *IntHistogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *IntHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *IntHistogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation (0 when empty).
func (h *IntHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Registry is a named collection of counters, gauges and histograms.
// Lookup is get-or-create, so packages can declare their metrics at
// init and tests can read them back by name.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaugs map[string]*Gauge
	hists map[string]*Histogram
	sizes map[string]*IntHistogram
	help  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  map[string]*Counter{},
		gaugs: map[string]*Gauge{},
		hists: map[string]*Histogram{},
		sizes: map[string]*IntHistogram{},
		help:  map[string]string{},
	}
}

func (r *Registry) setHelp(name, help string) {
	if help != "" {
		r.help[name] = help
	}
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	r.setHelp(name, help)
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaugs[name]
	if !ok {
		g = &Gauge{}
		r.gaugs[name] = g
	}
	r.setHelp(name, help)
	return g
}

// Histogram returns the registered histogram, creating it on first use
// (nil bounds means DefBuckets; bounds are fixed at creation).
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	r.setHelp(name, help)
	return h
}

// IntHistogram returns the registered integer histogram, creating it on
// first use (nil bounds means DefSizeBuckets; bounds are fixed at
// creation).
func (r *Registry) IntHistogram(name, help string, bounds []int64) *IntHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.sizes[name]
	if !ok {
		h = NewIntHistogram(bounds)
		r.sizes[name] = h
	}
	r.setHelp(name, help)
	return h
}

// Reset zeroes every registered metric, keeping registrations. Tests
// use it to isolate runs; package-level metric pointers stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ctrs {
		c.v.Store(0)
	}
	for _, g := range r.gaugs {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		for i := range h.exemplars {
			h.exemplars[i].Store(nil)
		}
		h.sum.Store(0)
		h.count.Store(0)
	}
	for _, h := range r.sizes {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.count.Store(0)
	}
}

// ---- labeled series ----
//
// The registry keys series by their full name, which may carry an
// inline label block: Counter(`chiron_slo_bad_total{workflow="x"}`).
// Labels builds such a block with correct text-format escaping; the
// exporters split it back apart so HELP/TYPE lines name the bare
// family, histogram buckets merge `le` into the existing set, and
// families stay contiguous in the output.

// EscapeLabel escapes a label value for the Prometheus text exposition
// format: backslash, double quote and newline must be escaped (in that
// order — escaping the escape character first).
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line: only backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Labels renders alternating key/value pairs as a `{k="v",...}` label
// block with escaped values, suitable for appending to a metric name
// handed to the registry. Keys are written as given (callers pass valid
// label names); values go through EscapeLabel. Panics on an odd number
// of arguments — that is a programming error, not input.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs.Labels: odd number of key/value arguments")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries separates a registry series name into its bare family
// name and the inner label list (without braces, "" when unlabeled).
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := name[i+1:]
	inner = strings.TrimSuffix(inner, "}")
	return name[:i], inner
}

// series renders "base{labels}" or just "base", and "base_suffix{...}"
// variants for histogram children.
func seriesName(base, suffix, labels string) string {
	if labels == "" {
		return base + suffix
	}
	return base + suffix + "{" + labels + "}"
}

// bucketName renders a histogram bucket series, merging le into any
// existing labels.
func bucketName(base, labels, le string) string {
	if labels == "" {
		return base + `_bucket{le="` + le + `"}`
	}
	return base + `_bucket{` + labels + `,le="` + le + `"}`
}

// WriteProm renders every metric in the Prometheus text exposition
// format (classic 0.0.4: no exemplars), families contiguous and sorted
// by name so output is stable. Labeled series of one family share a
// single HELP/TYPE header.
func (r *Registry) WriteProm(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics renders the same families with OpenMetrics-style
// bucket exemplars (`# {trace_id="7"} 0.093` after bucket samples) and
// a trailing `# EOF`. Classic-format scrapers should use WriteProm;
// this variant exists so latency buckets can point at retained flight
// traces.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeText(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeText(w io.Writer, exemplars bool) error {
	type hsnap struct {
		bounds    []time.Duration
		counts    []uint64
		exemplars []*Exemplar
		sum       time.Duration
		count     uint64
	}
	type isnap struct {
		bounds []int64
		counts []uint64
		sum    int64
		count  uint64
	}
	type row struct {
		base, labels string
		kind         byte
		name         string // full series name as registered
	}

	r.mu.Lock()
	rows := make([]row, 0, len(r.ctrs)+len(r.gaugs)+len(r.hists)+len(r.sizes))
	add := func(n string, kind byte) {
		base, labels := splitSeries(n)
		rows = append(rows, row{base: base, labels: labels, kind: kind, name: n})
	}
	ctrs := map[string]uint64{}
	gaugs := map[string]int64{}
	hists := map[string]hsnap{}
	sizes := map[string]isnap{}
	help := map[string]string{}
	for n, c := range r.ctrs {
		add(n, 'c')
		ctrs[n] = c.Value()
		help[n] = r.help[n]
	}
	for n, g := range r.gaugs {
		add(n, 'g')
		gaugs[n] = g.Value()
		help[n] = r.help[n]
	}
	for n, h := range r.hists {
		add(n, 'h')
		s := hsnap{bounds: h.bounds, sum: h.Sum(), count: h.Count()}
		s.counts = make([]uint64, len(h.counts))
		s.exemplars = make([]*Exemplar, len(h.counts))
		for i := range h.counts {
			s.counts[i] = h.counts[i].Load()
			s.exemplars[i] = h.exemplars[i].Load()
		}
		hists[n] = s
		help[n] = r.help[n]
	}
	for n, h := range r.sizes {
		add(n, 'i')
		s := isnap{bounds: h.bounds, sum: h.Sum(), count: h.Count()}
		s.counts = make([]uint64, len(h.counts))
		for i := range h.counts {
			s.counts[i] = h.counts[i].Load()
		}
		sizes[n] = s
		help[n] = r.help[n]
	}
	r.mu.Unlock()

	// Sort by (family, labels) so a family's labeled series stay
	// contiguous — `{` sorts after `_`, so sorting raw names could
	// interleave another family between an unlabeled and a labeled
	// series of the same base.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].base != rows[j].base {
			return rows[i].base < rows[j].base
		}
		return rows[i].labels < rows[j].labels
	})

	kindName := map[byte]string{'c': "counter", 'g': "gauge", 'h': "histogram", 'i': "histogram"}
	lastFamily := ""
	for _, rw := range rows {
		if rw.base != lastFamily {
			lastFamily = rw.base
			if hl := help[rw.name]; hl != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", rw.base, escapeHelp(hl)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", rw.base, kindName[rw.kind]); err != nil {
				return err
			}
		}
		switch rw.kind {
		case 'c':
			if _, err := fmt.Fprintf(w, "%s %d\n", rw.name, ctrs[rw.name]); err != nil {
				return err
			}
		case 'g':
			if _, err := fmt.Fprintf(w, "%s %d\n", rw.name, gaugs[rw.name]); err != nil {
				return err
			}
		case 'i':
			h := sizes[rw.name]
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				if _, err := fmt.Fprintf(w, "%s %d\n", bucketName(rw.base, rw.labels, fmt.Sprintf("%d", b)), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.counts)-1]
			if _, err := fmt.Fprintf(w, "%s %d\n", bucketName(rw.base, rw.labels, "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n",
				seriesName(rw.base, "_sum", rw.labels), h.sum,
				seriesName(rw.base, "_count", rw.labels), h.count); err != nil {
				return err
			}
		default:
			h := hists[rw.name]
			cum := uint64(0)
			writeBucket := func(le string, cum uint64, ex *Exemplar) error {
				if _, err := fmt.Fprintf(w, "%s %d", bucketName(rw.base, rw.labels, le), cum); err != nil {
					return err
				}
				if exemplars && ex != nil {
					if _, err := fmt.Fprintf(w, " # {trace_id=\"%d\"} %g", ex.TraceID, ex.Value); err != nil {
						return err
					}
				}
				_, err := io.WriteString(w, "\n")
				return err
			}
			for i, b := range h.bounds {
				cum += h.counts[i]
				if err := writeBucket(fmt.Sprintf("%g", b.Seconds()), cum, h.exemplars[i]); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.counts)-1]
			if err := writeBucket("+Inf", cum, h.exemplars[len(h.counts)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %g\n%s %d\n",
				seriesName(rw.base, "_sum", rw.labels), h.sum.Seconds(),
				seriesName(rw.base, "_count", rw.labels), h.count); err != nil {
				return err
			}
		}
	}
	return nil
}
