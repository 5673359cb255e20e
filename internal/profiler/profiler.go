// Package profiler implements Chiron's Profiler component (Section 3.2).
//
// For every function it performs a solo run without tracing (the latency
// baseline), then a traced run whose strace log it parses to extract block
// periods. Because tracing inflates the run, all periods are rescaled by
// the untraced/traced latency ratio, exactly as the paper describes:
// "Profiler scales down all block periods based on the average function
// latency recorded without strace." The output Profile is the only view of
// a function the Predictor and PGP ever see — prediction error therefore
// includes honest profiling error.
package profiler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/parallel"
	"chiron/internal/trace"
)

// Period is one rescaled block period within a solo run.
type Period struct {
	Start, End time.Duration
	Kind       behavior.SegmentKind
	Path       string
}

// Dur returns the period's length.
func (p Period) Dur() time.Duration { return p.End - p.Start }

// Profile is the Profiler's description of one function.
type Profile struct {
	Name string
	// Solo is the untraced solo-run latency.
	Solo time.Duration
	// Periods are the rescaled block periods, in time order.
	Periods []Period
	// Runtime, MemMB, OutputBytes and Files are deployment metadata
	// carried through from the registry.
	Runtime     behavior.Runtime
	MemMB       float64
	OutputBytes int64
	Files       []string
}

// CPUTime returns the solo CPU time implied by the profile: everything
// that is not a block period.
func (p *Profile) CPUTime() time.Duration {
	var block time.Duration
	for _, per := range p.Periods {
		block += per.Dur()
	}
	if block > p.Solo {
		return 0
	}
	return p.Solo - block
}

// Spec reconstructs the estimated behaviour spec the Predictor simulates:
// CPU segments fill the gaps between block periods. The reconstruction is
// close to, but not identical to, the function's true behaviour — that gap
// is part of Figure 12's prediction error.
func (p *Profile) Spec() *behavior.Spec {
	s := &behavior.Spec{
		Name:        p.Name,
		Runtime:     p.Runtime,
		MemMB:       p.MemMB,
		OutputBytes: p.OutputBytes,
		Files:       append([]string(nil), p.Files...),
	}
	cursor := time.Duration(0)
	for _, per := range p.Periods {
		if per.Start > cursor {
			s.Segments = append(s.Segments, behavior.Segment{Kind: behavior.CPU, Dur: per.Start - cursor})
		}
		d := per.Dur()
		if d <= 0 {
			d = time.Nanosecond
		}
		s.Segments = append(s.Segments, behavior.Segment{Kind: per.Kind, Dur: d})
		cursor = per.End
	}
	if cursor < p.Solo {
		s.Segments = append(s.Segments, behavior.Segment{Kind: behavior.CPU, Dur: p.Solo - cursor})
	}
	if len(s.Segments) == 0 {
		s.Segments = append(s.Segments, behavior.Segment{Kind: behavior.CPU, Dur: time.Nanosecond})
	}
	return s
}

// Options configure the Profiler.
type Options struct {
	// Overhead is the tracing perturbation applied during the strace run.
	Overhead trace.Overhead
	// Seed drives deterministic trace jitter.
	Seed int64
}

// DefaultOptions returns the standard profiling setup.
func DefaultOptions() Options {
	return Options{Overhead: trace.DefaultOverhead(), Seed: 1}
}

// profKey fingerprints ProfileFunction's inputs — the full spec content,
// the tracing overhead and the jitter seed — with two independent FNV
// streams (128 bits total) so the memo below cannot conflate two distinct
// profiling jobs.
type profKey struct{ h1, h2 uint64 }

const (
	profFNVOffset = uint64(14695981039346656037)
	profFNVPrime  = uint64(1099511628211)
)

func (k *profKey) byteIn(b byte) {
	k.h1 = (k.h1 ^ uint64(b)) * profFNVPrime // FNV-1a: xor then multiply
	k.h2 = (k.h2 * profFNVPrime) ^ uint64(b) // FNV-1: multiply then xor
}

func (k *profKey) word(v uint64) {
	for i := 0; i < 64; i += 8 {
		k.byteIn(byte(v >> i))
	}
}

// str folds a string followed by a 0x1f separator, so adjacent fields can
// never collide by shifting bytes across a boundary.
func (k *profKey) str(s string) {
	for i := 0; i < len(s); i++ {
		k.byteIn(s[i])
	}
	k.byteIn(0x1f)
}

func profKeyOf(spec *behavior.Spec, opt Options) profKey {
	k := profKey{h1: profFNVOffset, h2: profFNVOffset}
	k.str(spec.Name)
	k.str(string(spec.Runtime))
	k.word(math.Float64bits(spec.MemMB))
	k.word(uint64(spec.OutputBytes))
	k.word(uint64(len(spec.Files)))
	for _, f := range spec.Files {
		k.str(f)
	}
	k.word(uint64(len(spec.Segments)))
	for _, s := range spec.Segments {
		k.word(uint64(s.Kind))
		k.word(uint64(s.Dur))
		k.word(uint64(s.Bytes))
	}
	k.word(math.Float64bits(opt.Overhead.CPUFactor))
	k.word(math.Float64bits(opt.Overhead.BlockFactor))
	k.word(math.Float64bits(opt.Overhead.JitterPct))
	k.word(uint64(opt.Seed))
	return k
}

// profileCache memoizes ProfileFunction across the process. Profiling is a
// pure function of (spec content, overhead, seed) — trace.Record derives
// every jitter draw from the seed — so serving a repeat from the cache is
// byte-identical to recomputing it; experiments that profile the same
// workload (every figure shares the FINRA workflows) skip the dominant
// trace-record/parse cost. The cache holds the canonical copy; every
// caller receives a private clone on the way out, so callers may mutate
// what they receive.
//
// 4096 entries, 8 shards: the profile working set is small and strongly
// re-referenced (every figure shares the FINRA workflows).
var profileCache = parallel.NewCache[profKey, *Profile](4096, 8,
	func(k profKey) uint64 { return k.h1 })

// CacheStats exposes the memo's counters (Shared counts concurrent misses
// deduplicated by the singleflight loader, so Misses - Shared is the
// number of profiles actually computed).
func CacheStats() parallel.CacheStats { return profileCache.Stats() }

// PurgeCache empties the memo (tests that measure cold-path behaviour).
func PurgeCache() { profileCache.Purge() }

func cloneProfile(p *Profile) *Profile {
	c := *p
	c.Periods = append([]Period(nil), p.Periods...)
	c.Files = append([]string(nil), p.Files...)
	return &c
}

// ProfileFunction profiles one function: untraced baseline, traced run,
// log parse, rescale. Results are memoized by full input content; see
// profileCache.
//
// The memo stores the winner's freshly computed Profile as the canonical
// copy — nobody else holds a reference to it — and clones once on every
// return path, so each call costs exactly one clone (the old scheme
// cloned on Put *and* on every Get). Concurrent misses on one key run
// profileFunction once through the cache's singleflight loader; a
// re-plan burst profiling an unchanged workload computes each function a
// single time.
func ProfileFunction(spec *behavior.Spec, opt Options) (*Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := profKeyOf(spec, opt)
	if p, ok := profileCache.Get(key); ok {
		return cloneProfile(p), nil
	}
	p, _, err := profileCache.ComputeMissed(key, func() (*Profile, error) {
		return profileFunction(spec, opt)
	})
	if err != nil {
		return nil, err
	}
	return cloneProfile(p), nil
}

func profileFunction(spec *behavior.Spec, opt Options) (*Profile, error) {
	solo := spec.SoloLatency()

	rec := trace.Record(spec, opt.Overhead, opt.Seed)
	log := trace.FormatLog(rec)
	events, err := trace.ParseLog(log)
	if err != nil {
		return nil, fmt.Errorf("profiler: parsing strace log for %s: %w", spec.Name, err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	scale := 1.0
	if rec.Total > 0 {
		scale = float64(solo) / float64(rec.Total)
	}
	p := &Profile{
		Name:        spec.Name,
		Solo:        solo,
		Runtime:     spec.Runtime,
		MemMB:       spec.MemMB,
		OutputBytes: spec.OutputBytes,
		Files:       append([]string(nil), spec.Files...),
	}
	for _, ev := range events {
		start := time.Duration(float64(ev.At) * scale)
		end := time.Duration(float64(ev.At+ev.Dur) * scale)
		if end > solo {
			end = solo
		}
		if end <= start {
			continue
		}
		p.Periods = append(p.Periods, Period{Start: start, End: end, Kind: ev.Kind(), Path: ev.Path})
	}
	return p, nil
}

// Set is a profiled workflow: one profile per function, keyed by name.
type Set map[string]*Profile

// ProfileWorkflow profiles every function of a workflow.
func ProfileWorkflow(w *dag.Workflow, opt Options) (Set, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	set := make(Set, w.NumFunctions())
	for i, fn := range w.Functions() {
		o := opt
		o.Seed = opt.Seed + int64(i)*104729
		p, err := ProfileFunction(fn, o)
		if err != nil {
			return nil, err
		}
		set[fn.Name] = p
	}
	return set, nil
}

// Specs returns the reconstructed specs for the named functions, in order.
// It errors on names missing from the set (a PGP/Predictor wiring bug).
func (s Set) Specs(names []string) ([]*behavior.Spec, error) {
	out := make([]*behavior.Spec, len(names))
	for i, n := range names {
		p, ok := s[n]
		if !ok {
			return nil, fmt.Errorf("profiler: no profile for function %q", n)
		}
		out[i] = p.Spec()
	}
	return out, nil
}
