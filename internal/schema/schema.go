// Package schema provides relational building blocks shared by every layer
// of the fixing-rule system: attribute schemas, tuples, in-memory relations,
// and cell addressing.
//
// Values are untyped strings, as in the paper's model: a fixing rule's
// evidence patterns, negative patterns and facts are constants drawn from
// attribute domains, and equality is the only operation the semantics needs.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Schema describes a relation schema R: an ordered list of attribute names.
// A Schema is immutable after construction and safe for concurrent use.
type Schema struct {
	name  string
	attrs []string
	index map[string]int
}

// New builds a schema with the given relation name and attributes.
// It panics if an attribute is duplicated or empty, since a malformed
// schema is a programming error, not a runtime condition.
func New(name string, attrs ...string) *Schema {
	if len(attrs) == 0 {
		panic("schema: no attributes")
	}
	s := &Schema{
		name:  name,
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			panic("schema: empty attribute name")
		}
		if _, dup := s.index[a]; dup {
			panic(fmt.Sprintf("schema: duplicate attribute %q", a))
		}
		s.index[a] = i
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Attrs returns the attribute names in schema order. The caller must not
// modify the returned slice.
func (s *Schema) Attrs() []string { return s.attrs }

// Arity returns |R|, the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Index returns the position of attribute a, or -1 if a is not in attr(R).
func (s *Schema) Index(a string) int {
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Has reports whether a is an attribute of the schema.
func (s *Schema) Has(a string) bool {
	_, ok := s.index[a]
	return ok
}

// MustIndex is like Index but panics on an unknown attribute.
func (s *Schema) MustIndex(a string) int {
	i := s.Index(a)
	if i < 0 {
		panic(fmt.Sprintf("schema %s: unknown attribute %q", s.name, a))
	}
	return i
}

// String renders the schema as "Name(a, b, c)".
func (s *Schema) String() string {
	return s.name + "(" + strings.Join(s.attrs, ", ") + ")"
}

// Equal reports whether two schemas have the same name and attribute list.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || s.name != o.name || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i, a := range s.attrs {
		if o.attrs[i] != a {
			return false
		}
	}
	return true
}

// Tuple is a single row over some schema. Tuple values are positional; use
// the owning schema to translate attribute names to positions.
type Tuple []string

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// Equal reports value equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the tuple, usable in maps.
// Values are joined with an unlikely separator; it is intended for
// deduplication of enumerated tuples, not for persistent storage.
func (t Tuple) Key() string {
	return strings.Join(t, "\x1f")
}

// Relation is an in-memory table: a schema plus rows. It is the substrate
// both the repairing algorithms and the baseline FD-repair algorithms
// operate on.
type Relation struct {
	schema *Schema
	rows   []Tuple
}

// NewRelation creates an empty relation over s.
func NewRelation(s *Schema) *Relation {
	return &Relation{schema: s}
}

// FromRows returns a relation over s that adopts rows as its backing slice
// without copying; the caller hands over ownership. Builders that assemble
// rows themselves (e.g. copy-on-write repair output, where unchanged tuples
// are shared with the source relation) use this to skip the per-row append.
func FromRows(s *Schema, rows []Tuple) *Relation {
	return &Relation{schema: s, rows: rows}
}

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row. The returned tuple is the live row: mutating it
// mutates the relation.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns the underlying row slice. The caller must not append to it;
// mutating individual tuples is permitted (repair algorithms do so).
func (r *Relation) Rows() []Tuple { return r.rows }

// Append adds a row, which must match the schema arity.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("relation %s: row arity %d != schema arity %d",
			r.schema.Name(), len(t), r.schema.Arity()))
	}
	r.rows = append(r.rows, t)
}

// Clone deep-copies the relation (schema shared, rows copied).
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema, rows: make([]Tuple, len(r.rows))}
	for i, t := range r.rows {
		c.rows[i] = t.Clone()
	}
	return c
}

// Get returns the value of attribute a in row i.
func (r *Relation) Get(i int, a string) string {
	return r.rows[i][r.schema.MustIndex(a)]
}

// Set assigns value v to attribute a in row i.
func (r *Relation) Set(i int, a, v string) {
	r.rows[i][r.schema.MustIndex(a)] = v
}

// ActiveDomain returns the sorted set of distinct values appearing in
// attribute a across the relation. This is the "active domain" the paper's
// noise model and rule enrichment draw from.
func (r *Relation) ActiveDomain(a string) []string {
	i := r.schema.MustIndex(a)
	seen := make(map[string]struct{})
	for _, t := range r.rows {
		seen[t[i]] = struct{}{}
	}
	vals := make([]string, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// Cell addresses a single value in a relation: row index plus attribute.
type Cell struct {
	Row  int
	Attr string
}

// String renders the cell as "row[attr]".
func (c Cell) String() string { return fmt.Sprintf("%d[%s]", c.Row, c.Attr) }

// Diff returns the cells at which relations a and b differ. Both relations
// must share a schema; the result is ordered by row then attribute position.
func Diff(a, b *Relation) []Cell {
	if !a.schema.Equal(b.schema) {
		panic("schema: Diff over different schemas")
	}
	if a.Len() != b.Len() {
		panic("schema: Diff over relations of different length")
	}
	var cells []Cell
	for i := 0; i < a.Len(); i++ {
		ta, tb := a.rows[i], b.rows[i]
		for j := range ta {
			if ta[j] != tb[j] {
				cells = append(cells, Cell{Row: i, Attr: a.schema.attrs[j]})
			}
		}
	}
	return cells
}
