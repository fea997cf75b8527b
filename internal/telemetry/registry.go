// Package telemetry is the switch-wide observability plane: one metric
// registry that every surface reads.
//
// The plane rides the existing off-path machinery — Stats() counter folds,
// the flow table's locked sample walk, the latency histograms' fold-on-read
// snapshots — and never touches the worker hot path: collectors run on the
// reader's goroutine (an HTTP scrape, the stats footer, the flow exporter's
// timer) and cost the forwarding workers nothing beyond the atomic loads the
// folds already perform.  The package has three consumers of one registry:
//
//   - Serve exposes the registry in Prometheus text exposition
//     format 0.0.4 on /metrics (stdlib net/http only) plus /debug/pprof;
//   - Footer renders the eswitchd end-of-run stats footer from the SAME
//     gathered samples, so stdout and HTTP can never disagree;
//   - FlowExporter (exporter.go) samples per-flow counters off the flow
//     table and emits IPFIX messages (internal/ipfix) to UDP or file sinks.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"eswitch/internal/hist"
)

// Kind is a metric family's Prometheus type.
type Kind int

const (
	Counter Kind = iota
	Gauge
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one metric dimension.
type Label struct{ Name, Value string }

// Sample is one collected metric point.  Value carries counter/gauge
// samples; Hist carries histogram samples (in nanoseconds — WriteText
// renders them as seconds per Prometheus convention).
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *hist.Snapshot
}

// Family is one metric family: a name, help text, a type, and a collector
// callback invoked at gather time on the reader's goroutine.
type Family struct {
	Name string
	Help string
	Kind Kind
	// Collect emits the family's current samples.  It runs under the
	// registry lock: keep it to counter folds and snapshot reads.
	Collect func(emit func(Sample))
}

// Registry is an ordered set of metric families.  Registration happens at
// arming time; Gather/WriteText may be called from any goroutine.
type Registry struct {
	mu       sync.Mutex
	families []Family
	byName   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// MustRegister adds families to the registry, panicking on a duplicate name
// (two collectors exporting the same family would render an invalid
// exposition).
func (r *Registry) MustRegister(fs ...Family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fs {
		if f.Name == "" || f.Collect == nil {
			panic("telemetry: family needs a name and a collector")
		}
		if _, dup := r.byName[f.Name]; dup {
			panic("telemetry: duplicate metric family " + f.Name)
		}
		r.byName[f.Name] = len(r.families)
		r.families = append(r.families, f)
	}
}

// Point is one gathered metric point, flattened for consumers that want
// values rather than exposition text (the stats footer).
type Point struct {
	Family string
	Sample
}

// Gather collects every family once, in registration order.
func (r *Registry) Gather() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	var pts []Point
	for _, f := range r.families {
		name := f.Name
		f.Collect(func(s Sample) {
			pts = append(pts, Point{Family: name, Sample: s})
		})
	}
	return pts
}

// WriteText renders the registry in Prometheus text exposition format 0.0.4.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sb strings.Builder
	for _, f := range r.families {
		sb.Reset()
		if f.Help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.Name, f.Kind)
		f.Collect(func(s Sample) {
			if f.Kind == HistogramKind && s.Hist != nil {
				writeHistogram(&sb, f.Name, s.Labels, s.Hist)
				return
			}
			sb.WriteString(f.Name)
			writeLabels(&sb, s.Labels, "")
			fmt.Fprintf(&sb, " %s\n", formatValue(s.Value))
		})
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram sample as cumulative le buckets plus
// _sum and _count.  Snapshots count nanoseconds; the exposition uses seconds
// (Prometheus base-unit convention).  Empty tail buckets are elided — the
// +Inf bucket always closes the series.
func writeHistogram(sb *strings.Builder, name string, labels []Label, s *hist.Snapshot) {
	last := -1
	for i, c := range s.Counts {
		if c != 0 {
			last = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= last; i++ {
		cum += s.Counts[i]
		le := formatValue(float64(hist.BucketUpperBound(i)) / 1e9)
		sb.WriteString(name)
		sb.WriteString("_bucket")
		writeLabels(sb, labels, le)
		fmt.Fprintf(sb, " %d\n", cum)
	}
	sb.WriteString(name)
	sb.WriteString("_bucket")
	writeLabels(sb, labels, "+Inf")
	fmt.Fprintf(sb, " %d\n", s.Count())
	sb.WriteString(name)
	sb.WriteString("_sum")
	writeLabels(sb, labels, "")
	fmt.Fprintf(sb, " %s\n", formatValue(float64(s.Sum)/1e9))
	sb.WriteString(name)
	sb.WriteString("_count")
	writeLabels(sb, labels, "")
	fmt.Fprintf(sb, " %d\n", s.Count())
}

// writeLabels renders {a="b",...}, appending an le label when non-empty.
func writeLabels(sb *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		// %q escapes backslash, quote and newline exactly as the
		// exposition format wants.
		fmt.Fprintf(sb, "%s=%q", l.Name, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "le=%q", le)
	}
	sb.WriteByte('}')
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
