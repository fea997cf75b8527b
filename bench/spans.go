package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names.  A span is recorded by the harness around a call into one
// layer; the layer is the prefix of the name.
const (
	spanInstance = iota
	spanSetup
	spanBuild
	spanWarm
	spanPhase
	spanUnit
	spanInject
	spanPoll
	spanDrain
	spanFlowMod
	spanModProbe
	spanOracle
	spanLedger
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanInstance: "bench.instance",
	spanSetup:    "bench.setup",
	spanBuild:    "bench.build",
	spanWarm:     "bench.warm",
	spanPhase:    "bench.phase",
	spanUnit:     "bench.unit",
	spanInject:   "gen.inject",
	spanPoll:     "dpdk.poll",
	spanDrain:    "gen.drain",
	spanFlowMod:  "core.flowmod",
	spanModProbe: "bench.modprobe",
	spanOracle:   "openflow.oracle",
	spanLedger:   "bench.ledger",
}

// span is one recorded interval.  parent is the index of the span that
// caused it (-1 for a root); unit is the timed-phase unit it belongs to
// (-1 outside the phase); label names a ledger pass.
type span struct {
	name       uint8
	parent     int32
	unit       int32
	start, end int64 // ns since the recorder's origin
	label      string
}

// recorder keeps spans in memory; they are written out when the run ends.
// A nil recorder means tracing is off and every method is a no-op, so call
// sites outside the hot loop need no guard.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name uint8, parent, unit int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, unit: unit, start: int64(time.Since(r.origin))})
	return int32(len(r.spans) - 1)
}

// end closes a span opened with begin.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.origin))
}

// add records a span whose bounds the caller already read.
func (r *recorder) add(name uint8, parent, unit int32, start, end time.Time) {
	r.spans = append(r.spans, span{name: name, parent: parent, unit: unit,
		start: int64(start.Sub(r.origin)), end: int64(end.Sub(r.origin))})
}

// labelled opens a span carrying a label (one per ledger pass).
func (r *recorder) labelled(name uint8, parent int32, label string) int32 {
	id := r.begin(name, parent, -1)
	if id >= 0 {
		r.spans[id].label = label
	}
	return id
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	name    string
	count   int
	totalNs int64
	selfNs  int64
}

// selfTimes aggregates the spans by name: total duration, and self time =
// duration minus the part covered by child spans.
func (r *recorder) selfTimes() []selfRow {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range r.spans {
		name := spanNames[s.name]
		if s.label != "" {
			name = s.label
		}
		row := rows[name]
		if row == nil {
			row = &selfRow{name: name}
			rows[name] = row
		}
		d := s.end - s.start
		row.count++
		row.totalNs += d
		row.selfNs += d - child[i]
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalNs > out[j].totalNs })
	return out
}

// write stores the spans as JSON: a name table and one
// [name, parent, unit, start_ns, end_ns, label] row per span.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"columns":["name","parent","unit","start_ns","end_ns","label"],"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, "],\n\"spans\":[\n")
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%q]", s.name, s.parent, s.unit, s.start, s.end, s.label)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	return nil
}
