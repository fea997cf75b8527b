package cpumodel

// CacheLevel identifies where a simulated memory access was served from.
type CacheLevel int

// Cache levels.
const (
	levelL1 CacheLevel = iota + 1
	levelL2
	levelL3
	levelMemory
)

// String names the level.
func (l CacheLevel) String() string {
	switch l {
	case levelL1:
		return "L1"
	case levelL2:
		return "L2"
	case levelL3:
		return "L3"
	default:
		return "memory"
	}
}

// cache is one set-associative LRU cache level.
type cache struct {
	sets  []cacheSet
	assoc int
	shift uint // log2(line size)
	nsets uint64
	// counters
	accesses uint64
	misses   uint64
}

type cacheSet struct {
	// tags in LRU order, most recently used first.
	tags []uint64
}

func newCache(size, assoc, lineSize int) *cache {
	if size <= 0 {
		return nil
	}
	lines := size / lineSize
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	// Round the set count down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c := &cache{sets: make([]cacheSet, p), assoc: assoc, nsets: uint64(p)}
	for lineSize > 1 {
		lineSize >>= 1
		c.shift++
	}
	return c
}

// access looks up the line containing addr, returning true on a hit, and
// updates LRU/fill state either way.
func (c *cache) access(addr uint64) bool {
	c.accesses++
	tag := addr >> c.shift
	set := &c.sets[tag&(c.nsets-1)]
	for i, t := range set.tags {
		if t == tag {
			// Move to front (most recently used).
			copy(set.tags[1:i+1], set.tags[:i])
			set.tags[0] = tag
			return true
		}
	}
	c.misses++
	// Fill: insert at front, evict beyond associativity.
	if len(set.tags) < c.assoc {
		set.tags = append(set.tags, 0)
	}
	copy(set.tags[1:], set.tags)
	set.tags[0] = tag
	return false
}

// Hierarchy is a simulated L1/L2/L3 cache hierarchy.
type Hierarchy struct {
	Platform   Platform
	l1, l2, l3 *cache
}

// NewHierarchy returns an empty cache hierarchy for the platform.
func NewHierarchy(p Platform) *Hierarchy {
	return &Hierarchy{
		Platform: p,
		l1:       newCache(p.L1Size, p.L1Assoc, p.LineSize),
		l2:       newCache(p.L2Size, p.L2Assoc, p.LineSize),
		l3:       newCache(p.L3Size, p.L3Assoc, p.LineSize),
	}
}

// Access simulates one memory access to addr and returns the level that
// served it and its latency in cycles.
func (h *Hierarchy) Access(addr uint64) (CacheLevel, int) {
	p := &h.Platform
	if h.l1 != nil && h.l1.access(addr) {
		return levelL1, p.L1Lat
	}
	if h.l2 != nil && h.l2.access(addr) {
		return levelL2, p.L2Lat
	}
	if h.l3 != nil {
		if h.l3.access(addr) {
			return levelL3, p.L3Lat
		}
		return levelMemory, p.MemLat
	}
	return levelMemory, p.MemLat
}

// Reset clears contents and counters.
func (h *Hierarchy) Reset() {
	p := h.Platform
	h.l1 = newCache(p.L1Size, p.L1Assoc, p.LineSize)
	h.l2 = newCache(p.L2Size, p.L2Assoc, p.LineSize)
	h.l3 = newCache(p.L3Size, p.L3Assoc, p.LineSize)
}
