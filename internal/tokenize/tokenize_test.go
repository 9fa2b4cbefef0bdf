package tokenize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"", nil},
		{"a-b_c", []string{"a", "b", "c"}},
		{"WiFi 802.11n", []string{"wifi", "802", "11n"}},
		{"ünïcode Tökens", []string{"ünïcode", "tökens"}},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSetDedups(t *testing.T) {
	got := Set("the cat and the hat")
	want := []string{"the", "cat", "and", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Set = %v, want %v", got, want)
	}
}

func TestDedup(t *testing.T) {
	got := Dedup([]string{"a", "b", "a", "c", "b"})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Dedup = %v", got)
	}
	if Dedup(nil) != nil {
		// Dedup(nil) returns an empty non-nil or nil slice; both are fine,
		// but it must be empty.
		if len(Dedup(nil)) != 0 {
			t.Fatal("Dedup(nil) should be empty")
		}
	}
}

func TestQGrams(t *testing.T) {
	if got := QGrams("abcd", 2); !reflect.DeepEqual(got, []string{"ab", "bc", "cd"}) {
		t.Fatalf("QGrams = %v", got)
	}
	if got := QGrams("ab", 2); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("short QGrams = %v", got)
	}
	if got := QGrams("a", 2); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("tiny QGrams = %v", got)
	}
	if got := QGrams("", 2); got != nil {
		t.Fatalf("empty QGrams = %v", got)
	}
	if got := QGrams("abc", 0); !reflect.DeepEqual(got, []string{"ab", "bc"}) {
		t.Fatalf("q<=0 should default to 2, got %v", got)
	}
}

func TestQGramsUnicode(t *testing.T) {
	got := QGrams("日本語", 2)
	want := []string{"日本", "本語"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QGrams unicode = %v, want %v", got, want)
	}
}

func TestAppendQGramsMatchesRuneGrams(t *testing.T) {
	// The reference is the rune-slice construction: q runes per gram,
	// invalid bytes decoded to U+FFFD.
	ref := func(s string, q int) []string {
		r := []rune(s)
		if len(r) == 0 {
			return nil
		}
		if len(r) <= q {
			return []string{string(r)}
		}
		var out []string
		for i := 0; i+q <= len(r); i++ {
			out = append(out, string(r[i:i+q]))
		}
		return out
	}
	for _, s := range []string{"", "a", "ab", "abc", "hello world", "日本語テキスト", "aé日b", "a\xffb\xfec", "\xff\xfe", "\xed\xa0\x80x"} {
		for q := 1; q <= 4; q++ {
			if got, want := AppendQGrams(nil, s, q), ref(s, q); !reflect.DeepEqual(got, want) {
				t.Errorf("AppendQGrams(%q, %d) = %q, want %q", s, q, got, want)
			}
		}
	}
	dst := AppendQGrams([]string{"keep"}, "abc", 2)
	if !reflect.DeepEqual(dst, []string{"keep", "ab", "bc"}) {
		t.Fatalf("AppendQGrams must append to dst, got %q", dst)
	}
}

// refOrdering is the string comparator the Interner replaced, kept as the
// reference its id order must reproduce: tokens compare by document
// frequency, then by value; tokens unknown to the build follow every known
// one and compare by value.
type refOrdering struct {
	rank map[string]int
}

func buildRefOrdering(docs [][]string) *refOrdering {
	df := make(map[string]int)
	for _, doc := range docs {
		seen := make(map[string]bool, len(doc))
		for _, t := range doc {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	tokens := make([]string, 0, len(df))
	for t := range df {
		tokens = append(tokens, t)
	}
	sort.Slice(tokens, func(i, j int) bool {
		if df[tokens[i]] != df[tokens[j]] {
			return df[tokens[i]] < df[tokens[j]]
		}
		return tokens[i] < tokens[j]
	})
	o := &refOrdering{rank: make(map[string]int, len(tokens))}
	for i, t := range tokens {
		o.rank[t] = i
	}
	return o
}

func (o *refOrdering) Compare(a, b string) int {
	ra, oka := o.rank[a]
	rb, okb := o.rank[b]
	switch {
	case oka && okb:
		if ra != rb {
			return ra - rb
		}
		return strings.Compare(a, b)
	case oka:
		return -1
	case okb:
		return 1
	default:
		return strings.Compare(a, b)
	}
}

func (o *refOrdering) Less(a, b string) bool { return o.Compare(a, b) < 0 }

// Sorted returns the distinct tokens of doc in the reference order.
func (o *refOrdering) Sorted(doc []string) []string {
	out := slices.Clone(Dedup(doc))
	slices.SortFunc(out, o.Compare)
	return out
}

// build interns docs and returns the interner with the docs' id lists.
func build(docs [][]string) (*Interner, [][]int32) {
	b := NewBuilder(len(docs), 0)
	for _, d := range docs {
		b.Add(d)
	}
	return b.Build()
}

// tokensOf maps ids back to their tokens.
func tokensOf(in *Interner, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = in.tokens[id]
	}
	return out
}

func TestBuildOrderingByDocumentFrequency(t *testing.T) {
	docs := [][]string{
		{"rare", "common"},
		{"common", "mid"},
		{"common", "mid"},
	}
	in, ids := build(docs)
	rare := in.ids["rare"]
	mid := in.ids["mid"]
	common := in.ids["common"]
	// rare (df 1) < mid (df 2) < common (df 3), ranks 0, 1, 2.
	if rare != 0 || mid != 1 || common != 2 {
		t.Fatalf("ids rare=%d mid=%d common=%d, want 0, 1, 2", rare, mid, common)
	}
	if _, ok := in.ids["unseen"]; ok {
		t.Fatal("unseen token should have no id")
	}
	want := [][]int32{{0, 2}, {1, 2}, {1, 2}}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("doc ids = %v, want %v", ids, want)
	}
}

func TestOrderingUnknownTokens(t *testing.T) {
	in, _ := build([][]string{{"a"}})
	a := in.ids["a"]
	zzz := in.Intern("zzz")
	yyy := in.Intern("yyy")
	if zzz <= a || yyy <= zzz {
		t.Fatalf("late ids must follow ranked ones in interning order: a=%d zzz=%d yyy=%d", a, zzz, yyy)
	}
	if in.Compare(a, zzz) >= 0 || in.Compare(zzz, a) <= 0 {
		t.Fatal("ranked tokens should precede unseen ones")
	}
	if in.Compare(yyy, zzz) >= 0 {
		t.Fatal("unseen tokens should compare by value")
	}
	if in.Intern("zzz") != zzz {
		t.Fatal("Intern must be idempotent")
	}
}

func TestOrderingDuplicatesCountOncePerDoc(t *testing.T) {
	in, ids := build([][]string{
		{"x", "x", "x"}, // df(x) = 1
		{"y"},           // df(y) = 1
		{"y"},           // df(y) = 2
	})
	x := in.ids["x"]
	y := in.ids["y"]
	if in.Compare(x, y) >= 0 {
		t.Fatal("x (df 1) should precede y (df 2)")
	}
	if len(ids[0]) != 1 {
		t.Fatalf("repeats within a document must be dropped: %v", ids[0])
	}
}

// TestSortedDoesNotMutate: AppendDoc, which replaced Ordering.Sorted,
// returns the distinct tokens in global order and leaves its input alone.
func TestSortedDoesNotMutate(t *testing.T) {
	in, _ := build([][]string{{"b"}, {"b"}, {"a"}})
	doc := []string{"b", "new", "a", "b", "alpha"}
	got := tokensOf(in, in.AppendDoc(nil, doc))
	if want := []string{"a", "b", "alpha", "new"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendDoc = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(doc, []string{"b", "new", "a", "b", "alpha"}) {
		t.Fatal("AppendDoc mutated its input")
	}
}

// TestInternerMatchesReferenceOrdering is the ordering oracle: for random
// documents, every document's interned ids (built, or appended later with
// tokens the build never saw) map back to exactly the reference
// comparator's sorted distinct tokens, and Compare agrees with the
// reference on every token pair.
func TestInternerMatchesReferenceOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randDoc := func(universe int) []string {
		doc := make([]string, rng.Intn(9))
		for i := range doc {
			doc[i] = fmt.Sprintf("t%d", rng.Intn(universe))
		}
		return doc
	}
	for trial := 0; trial < 300; trial++ {
		docs := make([][]string, rng.Intn(12))
		for i := range docs {
			docs[i] = randDoc(20)
		}
		ref := buildRefOrdering(docs)
		in, ids := build(docs)
		for d, doc := range docs {
			if got, want := tokensOf(in, ids[d]), ref.Sorted(doc); !slices.Equal(got, want) {
				t.Fatalf("trial %d doc %d: interned order %v, reference %v", trial, d, got, want)
			}
		}
		// Later documents draw from a wider universe, so some tokens are
		// first seen here (the Append path of an incremental session).
		var seen []string
		for k := 0; k < 6; k++ {
			doc := randDoc(40)
			if got, want := tokensOf(in, in.AppendDoc(nil, doc)), ref.Sorted(doc); !slices.Equal(got, want) {
				t.Fatalf("trial %d late doc %d: interned order %v, reference %v", trial, k, got, want)
			}
			seen = append(seen, doc...)
		}
		for _, a := range seen {
			for _, b := range seen {
				ia := in.ids[a]
				ib := in.ids[b]
				if sign(in.Compare(ia, ib)) != sign(ref.Compare(a, b)) {
					t.Fatalf("trial %d: Compare(%s, %s) = %d, reference %d", trial, a, b, in.Compare(ia, ib), ref.Compare(a, b))
				}
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Property: the reference ordering is a strict weak order — irreflexive and
// antisymmetric on distinct tokens, known or not.
func TestOrderingTotalProperty(t *testing.T) {
	o := buildRefOrdering([][]string{{"a", "b"}, {"b", "c"}, {"c"}})
	f := func(x, y string) bool {
		if x == y {
			return !o.Less(x, y)
		}
		return o.Less(x, y) != o.Less(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Interner.Compare is a strict total order on interned ids.
func TestInternerCompareTotalProperty(t *testing.T) {
	in, _ := build([][]string{{"a", "b"}, {"b", "c"}, {"c"}})
	f := func(x, y string) bool {
		ix, iy := in.Intern(x), in.Intern(y)
		if x == y {
			return in.Compare(ix, iy) == 0
		}
		return sign(in.Compare(ix, iy)) == -sign(in.Compare(iy, ix)) && in.Compare(ix, iy) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInternerOverlap: the merge intersection counts shared tokens like a
// set intersection, for ranked ids, for ids interned after Build (whose
// global order is by token, not by id) and for lists mixing both.
func TestInternerOverlap(t *testing.T) {
	b := NewBuilder(3, 8)
	for _, doc := range [][]string{{"a", "b", "c"}, {"b", "c"}, {"c", "d"}} {
		b.Add(doc)
	}
	in, _ := b.Build()
	// Interned in reverse token order, so late ids and token order disagree.
	for _, t := range []string{"z", "y", "x"} {
		in.Intern(t)
	}
	docs := [][]string{
		{"a", "b", "c", "d"}, {"c", "d"}, {"x", "y", "z"}, {"z", "x"},
		{"a", "x", "c", "y"}, {"y", "d", "b"}, {}, {"q", "a", "x"},
	}
	for _, da := range docs {
		for _, db := range docs {
			want := 0
			for _, tok := range Dedup(da) {
				if slices.Contains(db, tok) {
					want++
				}
			}
			x, y := in.AppendDoc(nil, da), in.AppendDoc(nil, db)
			if got := in.Overlap(x, y); got != want {
				t.Errorf("Overlap(%q, %q) = %d (ids %v, %v), want %d", da, db, got, x, y, want)
			}
		}
	}
}
