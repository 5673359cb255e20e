package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"chiron/internal/render"
)

// chromeEvent is one trace_event object. Field order is fixed by the
// struct, and args are pre-rendered in Arg order, so serialization is
// deterministic.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur,omitempty"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// us converts a virtual/nominal duration to trace_event microseconds.
func us(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// encodeArgs renders an ordered Arg list as a JSON object, preserving
// order (encoding/json would sort a map; we want recording order).
func encodeArgs(args []Arg) json.RawMessage {
	if len(args) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(a.Key)
		v, _ := json.Marshal(a.Val)
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return json.RawMessage(b.String())
}

// WriteChrome renders the trace in the Chrome trace_event JSON format
// (the "JSON Object Format": {"traceEvents": [...]}), loadable in
// Perfetto or chrome://tracing. Virtual-time traces map nanosecond
// timestamps onto the microsecond timeline; sandboxes appear as
// pseudo-processes with their functions as threads. Output is
// byte-deterministic for a canonically-equal trace.
func (t *Trace) WriteChrome(w io.Writer) error {
	var evs []chromeEvent

	// Metadata: process and thread names, sorted for determinism.
	t.mu.Lock()
	type pname struct {
		pid  int
		name string
	}
	var procs []pname
	for pid, name := range t.procs {
		procs = append(procs, pname{pid, name})
	}
	type tname struct {
		pid, tid int
		name     string
	}
	var threads []tname
	for k, name := range t.threads {
		threads = append(threads, tname{k[0], k[1], name})
	}
	t.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].pid != threads[j].pid {
			return threads[i].pid < threads[j].pid
		}
		return threads[i].tid < threads[j].tid
	})
	for _, p := range procs {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", PID: p.pid,
			Args: encodeArgs([]Arg{{Key: "name", Val: p.name}}),
		})
	}
	for _, th := range threads {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: th.pid, TID: th.tid,
			Args: encodeArgs([]Arg{{Key: "name", Val: th.name}}),
		})
	}

	for _, s := range t.Spans() {
		d := us(s.End - s.Start)
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Ts: us(s.Start), Dur: &d,
			PID: s.PID, TID: s.TID, Args: encodeArgs(s.Args),
		})
	}
	for _, i := range t.Instants() {
		evs = append(evs, chromeEvent{
			Name: i.Name, Cat: i.Cat, Ph: "i", Ts: us(i.At),
			PID: i.PID, TID: i.TID, S: "t", Args: encodeArgs(i.Args),
		})
	}
	for _, c := range t.Samples() {
		evs = append(evs, chromeEvent{
			Name: c.Name, Ph: "C", Ts: us(c.At), PID: c.PID,
			Args: encodeArgs([]Arg{{Key: "value", Val: fmt.Sprintf("%g", c.Value)}}),
		})
	}

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// timelineGlyphs maps span categories to Gantt glyphs.
var timelineGlyphs = map[string]byte{
	CatRequest:  '=',
	CatStage:    '-',
	CatWrap:     'w',
	CatFunction: '#',
	CatSlice:    '.',
	CatIPC:      'i',
	CatRPC:      'r',
	CatBoundary: 'b',
	CatCold:     'c',
	CatPlan:     'p',
}

// Timeline renders the trace as a fixed-width text chart via
// render.Gantt: one row per (pid, tid) track, spans painted by
// category glyph ('=' request, '-' stage, 'w' wrap, '#' function,
// '.' slice detail, 'i' IPC, 'r' RPC, 'b' boundary, 'c' cold start).
// Units are milliseconds.
func (t *Trace) Timeline(width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	type track struct{ pid, tid int }
	var order []track
	rowsByTrack := map[track]*render.GanttRow{}
	t.mu.Lock()
	procs := make(map[int]string, len(t.procs))
	for pid, name := range t.procs {
		procs[pid] = name
	}
	t.mu.Unlock()
	for _, s := range spans {
		tr := track{s.PID, s.TID}
		row, ok := rowsByTrack[tr]
		if !ok {
			label := procs[s.PID]
			if label == "" {
				label = fmt.Sprintf("p%d", s.PID)
			}
			if s.TID != 0 {
				label = fmt.Sprintf("%s.t%d", label, s.TID)
			}
			row = &render.GanttRow{Label: label}
			rowsByTrack[tr] = row
			order = append(order, tr)
		}
		glyph := timelineGlyphs[s.Cat]
		if glyph == 0 {
			glyph = '?'
		}
		row.Spans = append(row.Spans, render.GanttSpan{
			From:  s.Start.Seconds() * 1000,
			To:    s.End.Seconds() * 1000,
			Glyph: glyph,
		})
	}
	// Row order: by (pid, tid) so sandboxes group together.
	sort.Slice(order, func(i, j int) bool {
		if order[i].pid != order[j].pid {
			return order[i].pid < order[j].pid
		}
		return order[i].tid < order[j].tid
	})
	rows := make([]render.GanttRow, len(order))
	for i, tr := range order {
		rows[i] = *rowsByTrack[tr]
	}
	return render.Gantt(rows, width)
}
