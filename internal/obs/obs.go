// Package obs is a dependency-free observability layer for the repair
// service: atomic counters and gauges, a fixed-bucket latency histogram,
// and a registry that renders everything in the Prometheus text exposition
// format.
//
// The package is deliberately tiny — the repair engine's coded hot path is
// lock-free and zero-alloc, and nothing here may compromise that. All
// instruments are updated with single atomic operations and are registered
// up front (at server construction), so the request path never takes a
// lock or allocates: handlers hold *Counter / *Histogram pointers and call
// Add/Observe on aggregate results, never per tuple.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down (e.g. in-flight
// requests, ruleset version).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments the gauge by n (use a negative n to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 value, for quantities that are not whole
// numbers (seconds of uptime, probe latency, windowed rates). It renders
// like a Gauge; registered via Registry.FloatGauge or — for monotonic
// float quantities like cumulative GC pause seconds — Registry.FloatCounter.
type FloatGauge struct {
	v atomic.Uint64 // math.Float64bits
}

// Set stores f.
func (g *FloatGauge) Set(f float64) { g.v.Store(math.Float64bits(f)) }

// Add increments the value by f (CAS loop, same as Histogram's sum).
func (g *FloatGauge) Add(f float64) {
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+f)) {
			return
		}
	}
}

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket histogram in the Prometheus style: bounds
// are upper limits, counts are per-bucket (not cumulative internally), and
// an implicit +Inf bucket catches the tail. Observe is wait-free: one
// atomic add for the bucket, one for the count, and a CAS loop for the
// float sum.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
	// exemplars holds the most recent exemplar per bucket (len(bounds)+1),
	// written only by ObserveExemplar — i.e. only for sampled requests, so
	// the pointer store never touches the unsampled fast path.
	exemplars []atomic.Pointer[Exemplar]
}

// An Exemplar ties one observed value to the trace that produced it, in
// the OpenMetrics sense: scraping a slow bucket yields a trace ID to pull
// up in /debug/traces.
type Exemplar struct {
	// TraceID is the hex trace ID of the sampled request.
	TraceID string
	// Value is the observed value (seconds for latency histograms).
	Value float64
}

// DefaultLatencyBuckets spans 0.5ms to 10s, suitable for request
// latencies of an in-memory repair service.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// NewHistogram builds a histogram over the given upper bounds, which must
// be sorted ascending. An implicit +Inf bucket is appended.
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) → +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches the trace that produced
// it as the bucket's exemplar (latest wins). Callers use it only for
// sampled requests; unsampled traffic goes through Observe and pays
// nothing for the exemplar machinery.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// BucketExemplar returns bucket i's current exemplar (i indexes bounds;
// len(bounds) is the +Inf bucket), or nil.
func (h *Histogram) BucketExemplar(i int) *Exemplar { return h.exemplars[i].Load() }

// SlowestExemplar returns the exemplar of the highest non-empty bucket
// that has one — the trace to look at when the tail is slow.
func (h *Histogram) SlowestExemplar() *Exemplar {
	for i := len(h.exemplars) - 1; i >= 0; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			return e
		}
	}
	return nil
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket that holds the target rank, the same estimate
// Prometheus's histogram_quantile gives. It returns 0 with no
// observations; ranks landing in the +Inf bucket clamp to the largest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, counts := h.Snapshot()
	return QuantileFromBuckets(bounds, counts, q)
}

// Snapshot returns the histogram's finite upper bounds and a point-in-time
// copy of its per-bucket (non-cumulative) counts; counts has one extra
// trailing entry for the implicit +Inf bucket. The two slices feed
// QuantileFromBuckets, and external tooling can reconstruct the same view
// from a scraped exposition.
func (h *Histogram) Snapshot() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// QuantileFromBuckets is the quantile estimate Histogram.Quantile uses,
// exposed over raw bucket data: bounds are the finite upper bounds sorted
// ascending, counts the per-bucket (non-cumulative) observation counts
// with one trailing +Inf entry. Load tooling (cmd/fixload) uses it to turn
// before/after scrape deltas of a *_bucket family into the server-side
// latency quantiles of the measurement window.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= rank {
			if i >= len(bounds) { // +Inf bucket
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (bounds[i]-lo)*frac
		}
		cum += n
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// kind discriminates the instrument held by a series.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance of a metric family.
type series struct {
	labels string // pre-rendered, e.g. `endpoint="/repair"`, or ""
	c      *Counter
	g      *Gauge
	fg     *FloatGauge // float-valued counter or gauge; wins over c/g when set
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byLab  map[string]*series
}

// Registry holds named metric families and renders them as Prometheus
// text. Registration takes a lock; reading an instrument's pointer does
// not — register once, then hold the pointer.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	hooks  []func()
	// runtimeDone guards RegisterRuntime against double registration —
	// two runtime hooks would each apply full GC deltas and double-count.
	runtimeDone bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Labels renders label pairs in a fixed order for series identity; pass
// the result as the labels argument of Counter/Gauge/Histogram. Keys and
// values must not need escaping (the callers here use static ASCII).
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels wants key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// lookup finds or registers the series for (name, labels). The caller
// holds r.mu and sets the series' instrument before releasing it, so a
// concurrent registration or scrape never sees a half-made series.
func (r *Registry) lookup(name, help string, k kind, labels string) *series {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byLab: make(map[string]*series)}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type", name))
	}
	s := f.byLab[labels]
	if s == nil {
		s = &series{labels: labels}
		f.byLab[labels] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns the counter for (name, labels), registering it on first
// use. labels is a pre-rendered pair list from Labels, or "" for none.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// FloatGauge returns the float gauge for (name, labels), registering it on
// first use. A name may hold int or float series, never both.
func (r *Registry) FloatGauge(name, help, labels string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	if s.fg == nil {
		if s.g != nil {
			panic(fmt.Sprintf("obs: metric %s already registered as an int gauge", name))
		}
		s.fg = &FloatGauge{}
	}
	return s.fg
}

// FloatCounter returns a float-valued counter for (name, labels) — for
// monotonic quantities measured in fractional units, like cumulative GC
// pause seconds. It renders with counter TYPE metadata; the caller must
// only ever Add non-negative deltas.
func (r *Registry) FloatCounter(name, help, labels string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, labels)
	if s.fg == nil {
		if s.c != nil {
			panic(fmt.Sprintf("obs: metric %s already registered as an int counter", name))
		}
		s.fg = &FloatGauge{}
	}
	return s.fg
}

// Histogram returns the histogram for (name, labels), registering it on
// first use with the given bucket bounds (ignored on later lookups).
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// AddScrapeHook registers fn to run at the start of every WritePrometheus /
// WriteOpenMetrics call, outside the registry lock. Hooks let gauges whose
// values live elsewhere (windowed quality rates, Go runtime stats) refresh
// at scrape time while reusing the normal rendering path.
func (r *Registry) AddScrapeHook(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// markRuntimeRegistered flips the runtime-collector guard, reporting
// whether this call was the first.
func (r *Registry) markRuntimeRegistered() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runtimeDone {
		return false
	}
	r.runtimeDone = true
	return true
}

// WritePrometheus renders every registered family in the classic text
// exposition format (version 0.0.4): # HELP and # TYPE once per family,
// then one line per series, histograms as cumulative _bucket/_sum/_count.
// Exemplars are never emitted here — the 0.0.4 parser rejects anything
// after the sample value — use WriteOpenMetrics for scrapers that
// negotiate application/openmetrics-text.
func (r *Registry) WritePrometheus(w io.Writer) { r.write(w, false) }

// WriteOpenMetrics renders every registered family in the OpenMetrics
// text format: counter metadata drops the _total suffix, and histogram
// buckets carry their trace-ID exemplars. The caller owns the `# EOF`
// terminator (it must be the exposition's last line, and callers may
// append series of their own first).
func (r *Registry) WriteOpenMetrics(w io.Writer) { r.write(w, true) }

func (r *Registry) write(w io.Writer, om bool) {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	// Snapshot each family's series under the lock: a scrape hook or a
	// handler may register a series while this one renders.
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	snap := make([][]*series, len(fams))
	for i, f := range fams {
		snap[i] = f.series[:len(f.series):len(f.series)]
	}
	r.mu.Unlock()
	for fi, f := range fams {
		typ := map[kind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
		meta := f.name
		if om && f.kind == kindCounter {
			// OpenMetrics names the counter family without _total; the
			// sample lines keep the full name.
			meta = strings.TrimSuffix(meta, "_total")
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", meta, f.help, meta, typ)
		for _, s := range snap[fi] {
			switch f.kind {
			case kindCounter:
				if s.fg != nil {
					writeSample(w, f.name, s.labels, "", s.fg.Load())
				} else {
					writeSample(w, f.name, s.labels, "", float64(s.c.Load()))
				}
			case kindGauge:
				if s.fg != nil {
					writeSample(w, f.name, s.labels, "", s.fg.Load())
				} else {
					writeSample(w, f.name, s.labels, "", float64(s.g.Load()))
				}
			case kindHistogram:
				var cum int64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					writeBucket(w, f.name, s.labels, fmt.Sprintf("le=%q", formatBound(bound)), float64(cum), exemplarIf(om, s.h, i))
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				writeBucket(w, f.name, s.labels, `le="+Inf"`, float64(cum), exemplarIf(om, s.h, len(s.h.bounds)))
				fmt.Fprintf(w, "%s_sum%s %v\n", f.name, renderLabels(s.labels, ""), s.h.Sum())
				fmt.Fprintf(w, "%s_count%s %v\n", f.name, renderLabels(s.labels, ""), s.h.Count())
			}
		}
	}
}

// exemplarIf returns bucket i's exemplar only for OpenMetrics output;
// the classic format cannot carry exemplars.
func exemplarIf(om bool, h *Histogram, i int) *Exemplar {
	if !om {
		return nil
	}
	return h.BucketExemplar(i)
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

func renderLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

func writeSample(w io.Writer, name, labels, extra string, v float64) {
	fmt.Fprintf(w, "%s%s %v\n", name, renderLabels(labels, extra), v)
}

// writeBucket renders one cumulative histogram bucket line, appending the
// bucket's exemplar in OpenMetrics syntax when one is given. Exemplars are
// only legal in application/openmetrics-text — pass nil when rendering the
// classic 0.0.4 format, whose parser rejects `#` after the sample value.
func writeBucket(w io.Writer, name, labels, le string, cum float64, e *Exemplar) {
	if e == nil {
		writeSample(w, name+"_bucket", labels, le, cum)
		return
	}
	fmt.Fprintf(w, "%s_bucket%s %v # {trace_id=%q} %v\n",
		name, renderLabels(labels, le), cum, e.TraceID, e.Value)
}
