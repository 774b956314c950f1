package repair

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fixrule/internal/schema"
)

func TestExplainCascade(t *testing.T) {
	r := NewRepairer(paperRuleset())
	e := r.Explain(schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"}, Linear)
	if !e.Changed() || len(e.Steps) != 2 {
		t.Fatalf("explanation = %+v", e)
	}
	if e.Steps[0].Rule.Name() != "phi1" || e.Steps[0].From != "Shanghai" || e.Steps[0].To != "Beijing" {
		t.Errorf("step 1 = %+v", e.Steps[0])
	}
	if e.Steps[1].Rule.Name() != "phi4" {
		t.Errorf("step 2 = %+v", e.Steps[1])
	}
	if len(e.Steps[0].Evidence) != 1 || e.Steps[0].Evidence[0] != `country="China"` {
		t.Errorf("evidence = %v", e.Steps[0].Evidence)
	}
	// Assured: country (evidence φ1), capital (target φ1 + evidence φ4),
	// conf (evidence φ4), city (target φ4) — in schema order.
	want := []string{"country", "capital", "city", "conf"}
	if len(e.Assured) != len(want) {
		t.Fatalf("assured = %v", e.Assured)
	}
	for i := range want {
		if e.Assured[i] != want[i] {
			t.Errorf("assured[%d] = %s, want %s", i, e.Assured[i], want[i])
		}
	}
	out := e.String()
	for _, s := range []string{"phi1", "phi4", "Shanghai", "Beijing", "assured attributes"} {
		if !strings.Contains(out, s) {
			t.Errorf("String() missing %q:\n%s", s, out)
		}
	}
}

func TestExplainCleanTuple(t *testing.T) {
	r := NewRepairer(paperRuleset())
	e := r.Explain(schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"}, Chase)
	if e.Changed() || len(e.Assured) != 0 {
		t.Fatalf("clean tuple explanation = %+v", e)
	}
	if !strings.Contains(e.String(), "unchanged") {
		t.Errorf("String() = %q", e.String())
	}
}

func TestStreamCSV(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := `name,country,capital,city,conf
George,China,Beijing,Beijing,SIGMOD
Ian,China,Shanghai,Hongkong,ICDE
Peter,China,Tokyo,Tokyo,ICDE
Mike,Canada,Toronto,Toronto,VLDB
`
	var out bytes.Buffer
	stats, err := r.Stream(context.Background(), strings.NewReader(in), &out, Linear, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 4 || stats.Repaired != 3 || stats.Steps != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.PerRule["phi1"] != 1 || stats.PerRule["phi4"] != 1 {
		t.Errorf("per-rule = %v", stats.PerRule)
	}
	// The output parses back to the Figure 8 relation.
	got, err := schema.ReadCSV(&out, r.Ruleset().Schema())
	if err != nil {
		t.Fatal(err)
	}
	want := fig8Want()
	for i := range want {
		if !got.Row(i).Equal(want[i]) {
			t.Errorf("row %d = %v, want %v", i, got.Row(i), want[i])
		}
	}
}

func TestStreamCSVErrors(t *testing.T) {
	r := NewRepairer(paperRuleset())
	cases := []string{
		"",                                    // no header
		"name,country,WRONG,city,conf\n",      // bad header
		"name,country,capital,city,conf\na\n", // short row
	}
	for i, in := range cases {
		var out bytes.Buffer
		if _, err := r.Stream(context.Background(), strings.NewReader(in), &out, Linear, StreamOptions{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
