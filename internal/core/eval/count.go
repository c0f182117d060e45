package eval

import (
	"sort"

	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
)

// Counting without materialization. |incL(p)| for a pattern whose operands
// are atomic can be computed arithmetically from the per-activity position
// lists, never building a single union — O(n log n) instead of O(output).
// Count uses this fast path when it applies and falls back to full
// evaluation otherwise; the two are cross-checked by property tests.

// Count returns |incL(p)|.
func (e *Evaluator) Count(p pattern.Node) int {
	if b, ok := p.(*pattern.Binary); ok {
		la, lok := b.Left.(*pattern.Atom)
		ra, rok := b.Right.(*pattern.Atom)
		if lok && rok && e.opts.Limit == 0 {
			total := 0
			for _, wid := range e.ix.WIDs() {
				total += e.countAtomicPair(b.Op, la, ra, wid)
			}
			return total
		}
	}
	total := 0
	for _, wid := range e.ix.WIDs() {
		total += len(e.evalWID(p, wid, nil))
	}
	return total
}

// atomSeqs returns the sorted is-lsn list matching the atom in the
// instance (guards applied).
func (e *Evaluator) atomSeqs(a *pattern.Atom, wid uint64) []uint64 {
	if !a.Negated && len(a.Guards) == 0 {
		return e.ix.ActivitySeqs(wid, a.Activity)
	}
	var out []uint64
	for _, rec := range e.ix.Instance(wid) {
		match := rec.Activity == a.Activity
		if a.Negated {
			match = !match
		}
		if match && predicate.MatchAll(a.Guards, rec) {
			out = append(out, rec.Seq)
		}
	}
	return out
}

// countAtomicPair computes |incL(a1 op a2)| within one instance from the
// two position lists.
func (e *Evaluator) countAtomicPair(op pattern.Op, a1, a2 *pattern.Atom, wid uint64) int {
	s1 := e.atomSeqs(a1, wid)
	s2 := e.atomSeqs(a2, wid)
	switch op {
	case pattern.OpConsecutive:
		// Pairs with s+1 present in s2.
		count := 0
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { return s2[i] >= s+1 })
			if i < len(s2) && s2[i] == s+1 {
				count++
			}
		}
		return count
	case pattern.OpSequential:
		// Σ over s1 of |{s2 > s}|.
		count := 0
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { return s2[i] > s })
			count += len(s2) - i
		}
		return count
	case pattern.OpChoice:
		// |S1 ∪ S2| over singletons: union of the position sets.
		return len(unionCount(s1, s2))
	case pattern.OpParallel:
		// Unordered pairs {x, y}, x ≠ y, x matching a1 and y matching a2.
		// Ordered qualifying pairs: n1·n2 minus the |I| same-record pairs
		// (I = positions matching both atoms). Each unordered pair with
		// BOTH elements in I arises from two ordered pairs; subtract the
		// C(|I|, 2) duplicates.
		inter := len(intersectCount(s1, s2))
		ordered := len(s1)*len(s2) - inter
		return ordered - inter*(inter-1)/2
	default:
		return 0
	}
}

// unionCount merges two sorted lists, returning the union.
func unionCount(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// intersectCount intersects two sorted lists.
func intersectCount(a, b []uint64) []uint64 {
	var out []uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
