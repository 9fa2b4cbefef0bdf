// Package tokenize provides the tokenizers used by set-based and
// character-based similarity functions, and the Interner that gives
// prefix-signature generation its integer token ids and global
// document-frequency ordering.
package tokenize

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits a value into lower-cased word tokens. Any run of letters or
// digits is a token; everything else separates tokens. Duplicates are
// preserved (callers that need sets use Set). Tokens are substrings of one
// lower-cased copy of the input, so the whole split costs O(1) allocations
// beyond that copy instead of one per token.
func Words(v string) []string {
	s := lower(v)
	// First pass counts tokens so the result is allocated exactly once
	// instead of growing through append doublings.
	n := 0
	inTok := false
	for _, r := range s {
		alnum := unicode.IsLetter(r) || unicode.IsDigit(r)
		if alnum && !inTok {
			n++
		}
		inTok = alnum
	}
	if n == 0 {
		return nil
	}
	tokens := make([]string, 0, n)
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			tokens = append(tokens, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, s[start:])
	}
	return tokens
}

// lower is strings.ToLower with a zero-allocation fast path for inputs that
// contain no upper-case ASCII and no non-ASCII bytes (the overwhelmingly
// common case for attribute values).
func lower(v string) string {
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 0x80 || c >= 'A' && c <= 'Z' {
			return strings.ToLower(v)
		}
	}
	return v
}

// Set returns the distinct tokens of Words(v), order-preserving on first
// occurrence.
func Set(v string) []string {
	return Dedup(Words(v))
}

// Dedup removes duplicate tokens, keeping first occurrences in order. Small
// inputs are deduplicated by linear scan and duplicate-free inputs are
// returned as-is, so the common case allocates nothing; only inputs that
// actually shrink allocate a fresh slice (the input is never mutated).
func Dedup(tokens []string) []string {
	if len(tokens) <= 32 {
		for i, t := range tokens {
			if indexOf(tokens[:i], t) >= 0 {
				return dedupFrom(tokens, i)
			}
		}
		return tokens
	}
	seen := make(map[string]struct{}, len(tokens))
	for i, t := range tokens {
		if _, ok := seen[t]; ok {
			return dedupSlow(tokens, i)
		}
		seen[t] = struct{}{}
	}
	return tokens
}

// dedupFrom copies tokens into a fresh slice, skipping duplicates; dup is the
// index of the first duplicate (everything before it is unique).
func dedupFrom(tokens []string, dup int) []string {
	out := make([]string, dup, len(tokens)-1)
	copy(out, tokens[:dup])
	for _, t := range tokens[dup+1:] {
		if indexOf(out, t) < 0 {
			out = append(out, t)
		}
	}
	return out
}

// dedupSlow is dedupFrom with a map, for large inputs.
func dedupSlow(tokens []string, dup int) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := make([]string, dup, len(tokens)-1)
	copy(out, tokens[:dup])
	for _, t := range tokens[:dup] {
		seen[t] = struct{}{}
	}
	for _, t := range tokens[dup+1:] {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// indexOf returns the position of t in xs or -1.
func indexOf(xs []string, t string) int {
	for i, x := range xs {
		if x == t {
			return i
		}
	}
	return -1
}

// QGrams returns the q-grams of s. Strings shorter than q yield a single gram
// holding the whole string (padded semantics are not needed for the DIME
// signature scheme; the count lower bound still holds). The empty string
// yields no grams.
func QGrams(s string, q int) []string {
	return AppendQGrams(nil, s, q)
}

// AppendQGrams appends the q-grams of s (as QGrams defines them) to dst and
// returns the extended slice. Every gram is a substring of s, so the grams
// themselves cost no allocation. Invalid UTF-8 is first decoded rune by
// rune, each bad byte becoming U+FFFD, so grams are always whole runes.
func AppendQGrams(dst []string, s string, q int) []string {
	if q <= 0 {
		q = 2
	}
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	if utf8.RuneCountInString(s) <= q {
		if s == "" {
			return dst
		}
		return append(dst, s)
	}
	// s[i:j] is the window of q runes starting at byte i.
	i, j := 0, 0
	for k := 0; k < q; k++ {
		_, w := utf8.DecodeRuneInString(s[j:])
		j += w
	}
	for {
		dst = append(dst, s[i:j])
		if j == len(s) {
			return dst
		}
		_, w := utf8.DecodeRuneInString(s[i:])
		i += w
		_, w = utf8.DecodeRuneInString(s[j:])
		j += w
	}
}

// Interner maps the tokens of one signature space — an attribute's tokens,
// or its q-grams of one length — to dense int32 ids, and is the global token
// ordering of that space. Signature schemes for set similarity need one
// order over all tokens so that the "first k tokens" of any two values are
// comparable; the DIME paper uses increasing document frequency, rare tokens
// first, which makes prefixes maximally selective.
//
// Tokens present when the interner is built (Builder.Build) are ranked: id r
// is the token of rank r under (document frequency, then token value), so
// comparing two ranked ids is comparing integers. Tokens first interned
// later get the next free ids, after every ranked one, and compare among
// themselves by token value; the order stays total and deterministic, which
// is all the prefix lemma needs.
//
// Compare and Sort only read; Intern and AppendDoc assign ids
// to unseen tokens and must not run concurrently with any other use.
type Interner struct {
	ids    map[string]int32
	tokens []string // id -> token
	ranked int32    // ids below ranked are ranks; the rest compare by value
}

// Builder interns the documents of one signature space and ranks their
// tokens by document frequency. Each document's id list is kept so that
// Build can hand every document back as deduplicated ids in rank order
// without hashing a token a second time.
type Builder struct {
	ids    map[string]int32
	tokens []string    // provisional id (first-seen order) -> token
	seen   []tokenSeen // provisional id -> document statistics
	arena  []int32     // every document's distinct provisional ids, back to back
	ends   []int32     // per document: end offset in arena
}

// tokenSeen is what Builder tracks per distinct token.
type tokenSeen struct {
	df   int32 // documents containing the token
	last int32 // 1 + the last document containing it
}

// NewBuilder returns a builder sized for docs documents holding about
// tokens tokens in total. Distinct tokens are typically a small and
// unpredictable share of all tokens, so the per-token tables grow instead.
func NewBuilder(docs, tokens int) *Builder {
	return &Builder{
		ids:   make(map[string]int32),
		arena: make([]int32, 0, tokens),
		ends:  make([]int32, 0, docs),
	}
}

// Add interns one document. A token's document frequency counts the
// documents containing it at least once; repeats within a document are
// dropped.
func (b *Builder) Add(doc []string) {
	d := int32(len(b.ends)) + 1
	for _, t := range doc {
		id, ok := b.ids[t]
		if !ok {
			id = int32(len(b.tokens))
			b.ids[t] = id
			b.tokens = append(b.tokens, t)
			b.seen = append(b.seen, tokenSeen{})
		}
		if st := &b.seen[id]; st.last != d {
			st.last = d
			st.df++
			b.arena = append(b.arena, id)
		}
	}
	b.ends = append(b.ends, int32(len(b.arena)))
}

// rankEntry is one distinct token while Build ranks them.
type rankEntry struct {
	df    int32
	token string
	prov  int32
}

func compareRank(a, b rankEntry) int {
	if a.df != b.df {
		return int(a.df - b.df)
	}
	return strings.Compare(a.token, b.token)
}

// Build ranks the interned tokens and returns the interner together with
// every added document's distinct ids, sorted (rank order), in Add order.
// The builder must not be used afterwards.
func (b *Builder) Build() (*Interner, [][]int32) {
	entries := make([]rankEntry, len(b.tokens))
	for p, t := range b.tokens {
		entries[p].df, entries[p].token, entries[p].prov = b.seen[p].df, t, int32(p)
	}
	slices.SortFunc(entries, compareRank)
	rank := make([]int32, len(entries)) // provisional id -> rank
	for r, e := range entries {
		rank[e.prov] = int32(r)
		b.tokens[r] = e.token
	}
	for t, p := range b.ids {
		b.ids[t] = rank[p]
	}
	for i, p := range b.arena {
		b.arena[i] = rank[p]
	}
	docs := make([][]int32, len(b.ends))
	start := int32(0)
	for d, end := range b.ends {
		doc := b.arena[start:end:end]
		slices.Sort(doc)
		docs[d] = doc
		start = end
	}
	return &Interner{ids: b.ids, tokens: b.tokens, ranked: int32(len(b.tokens))}, docs
}

// Intern returns the id of a token, assigning the next free id to a token
// never seen before.
func (in *Interner) Intern(t string) int32 {
	if id, ok := in.ids[t]; ok {
		return id
	}
	id := int32(len(in.tokens))
	in.ids[t] = id
	in.tokens = append(in.tokens, t)
	return id
}

// Compare orders two ids by the global ordering, returning a negative, zero
// or positive value as a sorts before, equal to, or after b. Ranked ids
// precede the rest; zero only for equal ids.
func (in *Interner) Compare(a, b int32) int {
	switch {
	case a < in.ranked && b < in.ranked:
		return int(a - b)
	case a < in.ranked:
		return -1
	case b < in.ranked:
		return 1
	default:
		return strings.Compare(in.tokens[a], in.tokens[b])
	}
}

// Sort sorts ids in place by the global ordering. Lists of ranked ids sort
// as plain integers.
func (in *Interner) Sort(ids []int32) {
	for _, id := range ids {
		if id >= in.ranked {
			slices.SortFunc(ids, in.Compare)
			return
		}
	}
	slices.Sort(ids)
}

// AppendDoc interns a document's tokens and appends their distinct ids to
// dst in global order.
func (in *Interner) AppendDoc(dst []int32, doc []string) []int32 {
	start := len(dst)
	for _, t := range doc {
		dst = append(dst, in.Intern(t))
	}
	in.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// Overlap returns the number of ids two documents of the space share. Both
// lists must be distinct ids in global order, as Build and AppendDoc return
// them. The merge walk compares ids as integers, which is the global order
// except between two ids interned after Build; only those compare through
// their tokens.
func (in *Interner) Overlap(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			n++
			i++
			j++
			continue
		}
		less := x < y
		if x >= in.ranked && y >= in.ranked {
			less = strings.Compare(in.tokens[x], in.tokens[y]) < 0
		}
		if less {
			i++
		} else {
			j++
		}
	}
	return n
}
