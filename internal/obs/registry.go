package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labels attaches dimensions to a metric ("app", "model", "thread", ...).
// Label keys and values must not contain '{', '}', ',' or '=' — the
// canonical key encoding reserves them.
type Labels map[string]string

// Key renders the canonical registry key: the metric name, then the labels
// as {k=v,...} with keys sorted. Equal (name, labels) pairs always render
// to equal keys, which is what makes snapshots deterministic.
func Key(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a labelled collection of instruments. Get-or-create lookups
// take a mutex; the returned instruments are lock-free, so callers cache
// them once per run and update them on hot paths. A nil *Registry returns
// nil instruments from every lookup, which in turn no-op — a disabled
// metrics chain costs one branch per update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry the stack reports into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	k := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	k := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket bounds on first use. Later lookups reuse the existing
// histogram regardless of the bounds argument — bucket layout is fixed by
// whoever registers the metric first.
func (r *Registry) Histogram(name string, labels Labels, bounds ...uint64) *Histogram {
	if r == nil {
		return nil
	}
	k := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		h = NewHistogram(bounds...)
		r.hists[k] = h
	}
	return h
}

// Reset drops every instrument. Meant for tests and for CLI runs that want
// a per-invocation baseline.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON: flat
// canonical-key maps. encoding/json sorts map keys, so marshalling a
// snapshot of equal state yields identical bytes.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
