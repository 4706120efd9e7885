package match

import (
	"fmt"
	"hash/fnv"
	"sort"

	"fuzzyfd/internal/assign"
	"fuzzyfd/internal/lexicon"
	"fuzzyfd/internal/strutil"
)

// maxBucket caps the size of a single blocking bucket on either side.
// Buckets larger than this (stopword-like tokens shared by half the column)
// generate quadratically many candidates while carrying almost no signal,
// so they are skipped; the remaining key families still cover such pairs.
const maxBucket = 64

// blockingKeys returns the candidate-generation keys for a value. Two
// values can only be within θ under the feature-hash embedders if they
// share surface or structural features, and every feature family used by
// the embedders is covered by a key family here:
//
//   - the folded form (exact and case/whitespace variants)
//   - the sorted token set (token reorderings)
//   - the consonant skeleton (vowel typos, doubled letters)
//   - the abbreviation signature (initialisms)
//   - the phonetic key (sound-alike misspellings)
//   - the 3 smallest hashed trigrams (general typos)
//   - individual tokens (shared-word overlap; bucket-capped)
//   - the entity-lexicon ID (synonyms and codes)
func blockingKeys(v string, lex *lexicon.Lexicon) []string {
	var keys []string
	add := func(family, k string) {
		if k != "" {
			keys = append(keys, family+":"+k)
		}
	}
	folded := strutil.Fold(v)
	add("f", folded)
	add("ts", strutil.SortedTokenSet(v))
	add("sk", strutil.ConsonantSkeleton(v))
	add("ab", strutil.AbbrevSignature(v))
	add("ph", strutil.PhoneticKey(v))
	for _, g := range minTrigrams(folded, 3) {
		add("g3", g)
	}
	for _, t := range strutil.Tokens(v) {
		add("t", t)
	}
	if lex != nil {
		if id, ok := lex.Lookup(v); ok {
			add("lx", id)
		}
	}
	return keys
}

// minTrigrams returns the k lexicographically-smallest-by-hash padded
// trigrams of s — a tiny MinHash that makes typo variants of the same
// string very likely to share at least one key.
func minTrigrams(s string, k int) []string {
	grams := strutil.CharNGrams(s, 3, true)
	if len(grams) == 0 {
		return nil
	}
	type hg struct {
		h uint32
		g string
	}
	hs := make([]hg, 0, len(grams))
	seen := make(map[string]bool, len(grams))
	for _, g := range grams {
		if seen[g] {
			continue
		}
		seen[g] = true
		f := fnv.New32a()
		f.Write([]byte(g))
		hs = append(hs, hg{h: f.Sum32(), g: g})
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].h != hs[j].h {
			return hs[i].h < hs[j].h
		}
		return hs[i].g < hs[j].g
	})
	if len(hs) > k {
		hs = hs[:k]
	}
	out := make([]string, len(hs))
	for i, x := range hs {
		out[i] = x.g
	}
	return out
}

// keyMemo caches blockingKeys per distinct value for the duration of one
// Matcher.match call: representatives are values of earlier columns, so
// without it every round would recompute their keys. It is local to the
// call, so concurrent Match calls share nothing.
type keyMemo map[string][]string

func (km keyMemo) keys(v string, lex *lexicon.Lexicon) []string {
	ks, ok := km[v]
	if !ok {
		ks = blockingKeys(v, lex)
		km[v] = ks
	}
	return ks
}

// blockedEdges generates candidate (cluster, value) pairs via the blocking
// index and scores them, keeping edges under θ.
func (m *Matcher) blockedEdges(clusters []*working, values []string, theta float64, memo keyMemo) []assign.Edge {
	scorer := m.scorer()
	lex := lexicon.Full()

	// Index side B by blocking key.
	byKey := make(map[string][]int)
	for j, v := range values {
		for _, k := range memo.keys(v, lex) {
			byKey[k] = append(byKey[k], j)
		}
	}

	var edges []assign.Edge
	// stamp[j] == i+1 once value j has been scored against cluster i;
	// clusters are visited in order, so this dedupes each pair.
	stamp := make([]int, len(values))
	for i, c := range clusters {
		for _, k := range memo.keys(c.rep, lex) {
			bucket := byKey[k]
			if len(bucket) > maxBucket {
				continue
			}
			for _, j := range bucket {
				if stamp[j] == i+1 {
					continue
				}
				stamp[j] = i + 1
				if d := scorer.Distance(c.rep, values[j]); d < theta {
					edges = append(edges, assign.Edge{A: i, B: j, Cost: d})
				}
			}
		}
	}
	return edges
}

// Validate checks the guarantee the implementation provides for Definition
// 2: every member joined its cluster at a distance under θ from the
// then-current representative (recorded in Member.Dist), and every cluster
// has exactly one member per column at most (columns from the same table do
// not align with themselves, so a column contributes at most one value to a
// set of matched values). Returns the first violation found.
func Validate(clusters []Cluster, theta float64) error {
	for ci, c := range clusters {
		if len(c.Members) == 0 {
			return fmt.Errorf("match: cluster %d is empty", ci)
		}
		cols := make(map[int]bool, len(c.Members))
		repSeen := false
		for _, mem := range c.Members {
			if mem.Dist >= theta {
				return fmt.Errorf("match: cluster %d: member %q matched at distance %.3f (θ=%.2f)",
					ci, mem.Value, mem.Dist, theta)
			}
			if cols[mem.Col] {
				return fmt.Errorf("match: cluster %d: two members from column %d", ci, mem.Col)
			}
			cols[mem.Col] = true
			if mem.Value == c.Rep {
				repSeen = true
			}
		}
		if !repSeen {
			return fmt.Errorf("match: cluster %d: representative %q is not a member", ci, c.Rep)
		}
	}
	return nil
}
