package engine

import (
	"math"
	"sort"

	"partix/internal/xquery"
)

// Value membership in the planner statistics.
//
// Every value list keeps a Bloom filter of its distinct values beside the
// sorted entries, so a statistics snapshot can tell a coordinator that an
// equality literal is definitely absent from a fragment, which a min/max
// range cannot do for a high-cardinality key. A value is keyed the way the
// evaluator's = compares it: a value that parses as a number
// (xquery.ParseNumber) by its float64, -0 folded to +0, so "1e2" and "100"
// share a key; any other value by its raw string. The hash is FNV-1a over
// a kind byte and the key bytes, finished by a 64-bit mix and split into
// the two halves of a double hash, so node and coordinator compute the
// same bits in any process.
//
// A put sets the new value's bits; a delete leaves them set, so the filter
// stays a superset of the values present. A bulk load, a rebuild from the
// persisted snapshot, and growth past twice the count the filter was
// sized for drop the filter, and the next statistics snapshot builds it
// whole from the entries.

const (
	// memberBitsPerValue sizes a filter: at 7 hashes the false-positive
	// rate is about 0.8 % while the filter holds no more values than it
	// was sized for.
	memberBitsPerValue = 10
	memberHashes       = 7

	// statsMemberBudget caps the filter bytes of one statistics snapshot.
	// Past it the largest filters are left out first, so the snapshot of a
	// fragment with many high-cardinality paths stays small on the wire.
	statsMemberBudget = 16 << 10
)

// members is one value list's membership filter.
type members struct {
	bits  []byte // nil: not built
	sized int    // distinct values the filter was sized for
	added int    // values inserted since it was built
}

// add sets the bits of a value new to the list, or drops the filter when
// it has grown past twice its sizing.
func (m *members) add(e *valueEntry) {
	if m.bits == nil {
		return
	}
	if m.added++; m.added > m.sized {
		m.bits = nil
		return
	}
	setMember(m.bits, memberHash(e.num, e.isNum, e.raw))
}

// built returns the filter over entries, building it first if needed.
func (m *members) built(entries []valueEntry) []byte {
	if m.bits == nil && len(entries) > 0 {
		m.sized, m.added = len(entries), 0
		m.bits = make([]byte, (memberBitsPerValue*len(entries)+63)/64*8)
		for i := range entries {
			setMember(m.bits, memberHash(entries[i].num, entries[i].isNum, entries[i].raw))
		}
	}
	return m.bits
}

// MayHold reports whether a value equal to lit under the evaluator's =
// may be at the path. It is true when the snapshot carries no filter for
// the path; false means no indexed value at the path equals lit.
func (ps PathStats) MayHold(lit string) bool {
	if len(ps.Members) == 0 {
		return true
	}
	num, isNum := xquery.ParseNumber(lit)
	h := memberHash(num, isNum, lit)
	m := uint64(len(ps.Members)) * 8
	h1, h2 := h&math.MaxUint32, h>>32
	for i := uint64(0); i < memberHashes; i++ {
		pos := (h1 + i*h2) % m
		if ps.Members[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

func setMember(bits []byte, h uint64) {
	m := uint64(len(bits)) * 8
	h1, h2 := h&math.MaxUint32, h>>32
	for i := uint64(0); i < memberHashes; i++ {
		pos := (h1 + i*h2) % m
		bits[pos>>3] |= 1 << (pos & 7)
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// memberHash hashes a value's membership key: its number when it parses
// as one, its raw string otherwise.
func memberHash(num float64, isNum bool, raw string) uint64 {
	h := uint64(fnvOffset)
	if isNum {
		if num == 0 {
			num = 0 // -0 and +0 are equal under =
		} else if num != num {
			num = math.NaN() // one NaN; it equals nothing anyway
		}
		bits := math.Float64bits(num)
		h = (h ^ 'n') * fnvPrime
		for i := 0; i < 64; i += 8 {
			h = (h ^ (bits >> i & 0xff)) * fnvPrime
		}
	} else {
		h = (h ^ 's') * fnvPrime
		for i := 0; i < len(raw); i++ {
			h = (h ^ uint64(raw[i])) * fnvPrime
		}
	}
	// FNV's high bits mix poorly; a final avalanche makes both halves of
	// the double hash usable.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h | 1<<32 // the second hash must not be 0
}

// capMembers drops filters from a snapshot's paths, largest first, until
// their bytes fit statsMemberBudget.
func capMembers(paths map[string]PathStats) {
	total := 0
	for _, ps := range paths {
		total += len(ps.Members)
	}
	if total <= statsMemberBudget {
		return
	}
	keys := make([]string, 0, len(paths))
	for key, ps := range paths {
		if len(ps.Members) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := len(paths[keys[i]].Members), len(paths[keys[j]].Members)
		return a > b || a == b && keys[i] < keys[j]
	})
	for _, key := range keys {
		if total <= statsMemberBudget {
			return
		}
		ps := paths[key]
		total -= len(ps.Members)
		ps.Members = nil
		paths[key] = ps
	}
}
