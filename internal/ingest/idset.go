package ingest

// idSet is an open-addressing set of non-zero uint64 observation IDs,
// purpose-built for the queue's duplicate-delivery check. The queue builds it
// only once a pending window's client IDs stop ascending (or a drain leaves
// part of the window behind); until then a compare against the window's
// high-water mark answers the check (see Queue.idHigh). From there the set
// sits on the per-tuple ingest path, where a map[uint64]struct{} costs more
// than the rest of Push combined (hashing through the runtime's generic map
// paths, plus a write barrier per insert). A flat linear-probe table with an
// integer mix keeps the membership test at a couple of cache lines.
//
// Zero is the empty-slot sentinel. That is sound here, not a hack: the queue
// never stores ID 0 — tuples pushed without an ID are assigned gateway IDs
// (GatewayIDBase | seq) and skip duplicate tracking entirely, and a
// client-supplied ID must be non-zero (and below GatewayIDBase) to reach the
// set.
//
// The table grows by doubling at 2/3 load and never shrinks; its size is
// bounded by the queue's Buffer, since every entry corresponds to a buffered
// tuple. The load factor trades slightly longer probe chains (contiguous,
// so typically still one cache line) for a table two-thirds the size — at
// the default buffer scale that is the difference between living in L1 or
// spilling out of it. Deletion uses backward-shift compaction (Knuth 6.4
// algorithm R), so probe chains stay contiguous without tombstones —
// important because a partial drain deletes ID by ID.
type idSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)), for the multiplicative hash
	n     int
}

const idSetMinSlots = 16

// hash is Fibonacci hashing: one multiply by 2^64/φ, keep the top bits.
// The high bits of k·C avalanche well for the sequential producer IDs that
// dominate real streams, spreading them across the table instead of
// forming one long probe chain — at a fraction of the cost of a full
// finalizer, which matters because this runs once per ingested tuple.
func (s *idSet) hash(id uint64) uint64 {
	return (id * 0x9e3779b97f4a7c15) >> s.shift
}

// probe looks up id (non-zero), returning whether it is present and, when
// absent, the empty slot where it belongs. The queue checks for a duplicate
// before the late/overflow gates and inserts only if the tuple is accepted;
// probe lets both steps share a single walk of the probe chain — commit with
// insertAt(slot, id), valid until the next mutation. The table is sized (and
// grown) here so the returned slot is always committable.
func (s *idSet) probe(id uint64) (slot uint64, present bool) {
	if len(s.slots) == 0 {
		s.slots = make([]uint64, idSetMinSlots)
		s.shift = 64 - 4
	} else if 3*(s.n+1) > 2*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	i := s.hash(id)
	for {
		switch s.slots[i] {
		case 0:
			return i, false
		case id:
			return i, true
		}
		i = (i + 1) & mask
	}
}

// insertAt commits an id into the empty slot a preceding probe returned.
func (s *idSet) insertAt(slot uint64, id uint64) {
	s.slots[slot] = id
	s.n++
}

// remove deletes id from the set if present. Backward-shift: after clearing
// the slot, every element in the contiguous probe cluster that follows is
// moved back if its home position no longer reaches it through the new hole.
func (s *idSet) remove(id uint64) {
	if s.n == 0 {
		return
	}
	mask := uint64(len(s.slots) - 1)
	i := s.hash(id)
	for s.slots[i] != id {
		if s.slots[i] == 0 {
			return // not present
		}
		i = (i + 1) & mask
	}
	s.n--
	// Compact the cluster that follows the hole at i.
	j := i
	for {
		s.slots[i] = 0
		for {
			j = (j + 1) & mask
			if s.slots[j] == 0 {
				return
			}
			// If j's home slot lies cyclically within (i, j], the element
			// still reaches j from home without crossing the hole; leave it.
			// Otherwise move it into the hole and repeat with the new hole.
			home := s.hash(s.slots[j])
			if (j-home)&mask >= (j-i)&mask {
				break
			}
		}
		s.slots[i] = s.slots[j]
		i = j
	}
}

// reset empties the set without releasing the table (the steady-state drain
// path, where the whole pending window leaves at once).
func (s *idSet) reset() {
	if s.n == 0 {
		return
	}
	clear(s.slots)
	s.n = 0
}

func (s *idSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, id := range old {
		if id == 0 {
			continue
		}
		i := s.hash(id)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = id
	}
}
