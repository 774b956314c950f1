package main

import (
	"context"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestSummarizeMatchesPythonExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3 gives these cut points.
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1=%v med=%v q3=%v", c.in, s, c.q1, c.med, c.q3)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(0, 0); got != 0 {
		t.Errorf("failFrac(0,0) = %v", got)
	}
	if got := failFrac(400, 3); got != 0.0075 {
		t.Errorf("failFrac(400,3) = %v", got)
	}
}

func TestGroupRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int, tuples int64) completion {
		return completion{at: t0.Add(time.Duration(ms) * time.Millisecond), tuples: tuples}
	}
	// Out of order on purpose; the last completion does not fill a run.
	done := []completion{at(300, 10), at(0, 99), at(100, 10), at(400, 10), at(200, 20), at(500, 5)}
	got := groupRates(done, 2)
	// Runs: (0,200] carries 10+20 tuples in 0.2 s; (200,400] carries 10+10.
	want := []float64{150, 100}
	if len(got) != len(want) {
		t.Fatalf("groupRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("groupRates = %v, want %v", got, want)
		}
	}
	// Too few completions for two runs: one run per completion.
	// The second completion carries 10 tuples 0.3 s after the first.
	if got := groupRates(done[:2], 2); len(got) != 1 || math.Abs(got[0]-100.0/3) > 1e-9 {
		t.Errorf("groupRates of 2 completions in 2 runs = %v, want [33.3]", got)
	}
	if got := groupRates(done[:1], 2); got != nil {
		t.Errorf("groupRates of 1 completion = %v, want nil", got)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"leaf", iv(0, 100), nil, 100},
		{"disjoint", iv(0, 100), []interval{iv(10, 20), iv(50, 80)}, 60},
		{"overlapping", iv(0, 100), []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"spill", iv(0, 100), []interval{iv(-50, 10), iv(95, 150)}, 85},
		{"outside", iv(0, 100), []interval{iv(200, 300)}, 100},
		{"unsorted", iv(0, 100), []interval{iv(70, 80), iv(0, 10)}, 80},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRunToFIFO(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "out")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, got, err := runToFIFO(ctx, "sh", []string{"-c", `printf 'a,b\n' > "$0"`, fifo}, fifo)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.Checksum([]byte("a,b\n"), castagnoli); got.err != nil || got.n != 4 || got.sum != want {
		t.Errorf("digest = %+v, want 4 bytes with CRC %08x", got, want)
	}
	// A job that dies before opening its output must not leave the reader
	// blocked.
	if _, _, err := runToFIFO(ctx, "sh", []string{"-c", "exit 3"}, fifo); err == nil {
		t.Error("failing job reported no error")
	}
}

func TestUnstalledRunsOnceWithoutStall(t *testing.T) {
	o := newOutcome()
	runs := 0
	if err := o.unstalled("phase", func() error { runs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || o.repeats != 0 || o.worstStall > stallLimit {
		t.Errorf("runs=%d repeats=%d worst=%v", runs, o.repeats, o.worstStall)
	}
	want := errors.New("boom")
	if err := o.unstalled("phase", func() error { return want }); !errors.Is(err, want) {
		t.Errorf("unstalled returned %v, want the phase's error", err)
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	// 100 rps: slots every 10 ms. Out-of-order sends are matched to slots
	// in send order.
	at := []time.Time{t0.Add(32 * ms), t0, t0.Add(12 * ms), t0.Add(20 * ms)}
	got := lateness(at, 100)
	want := []time.Duration{0, 2 * ms, 0, 2 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness = %v, want %v", got, want)
		}
	}
	// A schedule that starts late everywhere reads as on time: the origin
	// aligns to the best-placed dispatch.
	if got := lateness([]time.Time{t0.Add(50 * ms), t0.Add(60 * ms)}, 100); got[0] != 0 || got[1] != 0 {
		t.Errorf("shifted schedule lateness = %v, want zeros", got)
	}
}
