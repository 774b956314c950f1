package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Errorf("gauge = %d, want 4", g.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", got)
	}
	// Bucket occupancy: ≤1 holds {0.5, 1}, ≤2 holds {1.5}, ≤4 holds {3},
	// +Inf holds {100}.
	want := []int64{2, 1, 1, 1}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	// 100 observations uniform in the ≤10 bucket, 100 in the ≤20 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %v, want 10", got)
	}
	// p75: rank 150 is halfway through the (10, 20] bucket → 15.
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("p75 = %v, want 15", got)
	}
	// Everything beyond the last finite bound clamps to it.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", got)
	}
	// Empty histogram.
	if got := NewHistogram([]float64{1}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "")
	b := r.Counter("x_total", "help", "")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", "help", Labels("k", "v"))
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering as gauge did not panic")
		}
	}()
	r.Gauge("m", "h", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", Labels("endpoint", "/repair")).Add(3)
	r.Counter("req_total", "requests", Labels("endpoint", "/explain")).Add(1)
	r.Gauge("version", "ruleset version", "").Set(2)
	h := r.Histogram("lat_seconds", "latency", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests",
		"# TYPE req_total counter",
		`req_total{endpoint="/repair"} 3`,
		`req_total{endpoint="/explain"} 1`,
		"# TYPE version gauge",
		"version 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("a", "1", "b", "x\"y"); got != `a="1",b="x\"y"` {
		t.Errorf("Labels = %s", got)
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
}

// TestRegistryConcurrentRegisterAndScrape: scrape hooks register series
// (a new rule label in a quality window) while other scrapes render, so
// registration and rendering must be safe to run at once under -race.
func TestRegistryConcurrentRegisterAndScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Gauge("g", "h", Labels("k", strconv.Itoa(i))).Set(int64(g))
				r.Counter("c_total", "h", Labels("k", strconv.Itoa(i))).Inc()
				r.WritePrometheus(io.Discard)
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if got := strings.Count(buf.String(), "\nc_total{"); got != 100 {
		t.Errorf("%d c_total series rendered, want 100", got)
	}
}
