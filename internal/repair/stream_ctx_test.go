package repair

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fixrule/internal/schema"
)

// TestStreamCSVContextCancelled: a dead context stops the stream before
// its first chunk with an errors.Is-compatible cause.
func TestStreamCSVContextCancelled(t *testing.T) {
	r := NewRepairer(paperRuleset())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	var out strings.Builder
	_, err := r.Stream(ctx, strings.NewReader(in), &out, Linear, StreamOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamCSVContextDeadline: an expired deadline reports
// context.DeadlineExceeded so callers can map it to a timeout status.
func TestStreamCSVContextDeadline(t *testing.T) {
	r := NewRepairer(paperRuleset())
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	var out strings.Builder
	_, err := r.Stream(ctx, strings.NewReader(in), &out, Linear, StreamOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamCSVContextBackground: the background context never fires and
// the stream completes.
func TestStreamCSVContextBackground(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	var out strings.Builder
	stats, err := r.Stream(context.Background(), strings.NewReader(in), &out, Linear, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 1 || stats.Repaired != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if !strings.Contains(out.String(), "Ian,China,Beijing,Shanghai,ICDE") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestOOVCells pins the out-of-vocabulary semantics on the Figure 1 data:
// George's city "Beijing" and conf "SIGMOD" appear in no rule of Σ, and
// the irrelevant name attribute never counts.
func TestOOVCells(t *testing.T) {
	r := NewRepairer(paperRuleset())
	cases := []struct {
		tuple schema.Tuple
		want  int
	}{
		{schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"}, 2},
		{schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"}, 0},
		{schema.Tuple{"Peter", "China", "Tokyo", "Tokyo", "ICDE"}, 0},
		{schema.Tuple{"X", "Mars", "Phobos", "Deimos", "VLDB"}, 4},
	}
	for _, c := range cases {
		if got := r.OOVCells(c.tuple); got != c.want {
			t.Errorf("OOVCells(%v) = %d, want %d", c.tuple, got, c.want)
		}
	}
}

// TestOOVCountersAgree: the OOV totals of the batch, parallel and
// streaming paths must all equal the per-tuple sum. On the Figure 1 data
// that is 4: George's city/conf and Mike's city/conf are outside Σ.
func TestOOVCountersAgree(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := fig1Relation()
	want := 0
	for i := 0; i < rel.Len(); i++ {
		want += r.OOVCells(rel.Row(i))
	}
	if want != 4 {
		t.Fatalf("per-tuple OOV total = %d, want 4", want)
	}
	if got := r.RepairRelation(rel, Linear).OOV; got != want {
		t.Errorf("RepairRelation OOV = %d, want %d", got, want)
	}
	if got := r.RepairRelation(rel, Linear, RelationOptions{Workers: 3}).OOV; got != want {
		t.Errorf("RepairRelation with 3 workers: OOV = %d, want %d", got, want)
	}
	var csvIn strings.Builder
	csvIn.WriteString("name,country,capital,city,conf\n")
	for i := 0; i < rel.Len(); i++ {
		csvIn.WriteString(strings.Join(rel.Row(i), ",") + "\n")
	}
	for _, workers := range []int{1, 3} {
		var out strings.Builder
		stats, err := r.Stream(context.Background(), strings.NewReader(csvIn.String()), &out, Linear,
			StreamOptions{Workers: workers, ChunkRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OOV != want {
			t.Errorf("workers=%d: Stream OOV = %d, want %d", workers, stats.OOV, want)
		}
	}
}
