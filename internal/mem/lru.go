package mem

// lruHeap is an indexed binary min-heap of one SPU's evictable pages of
// one kind (clean or dirty), ordered by (key, seq). key is a snapshot of
// the page's lastUse, taken when the page enters the heap; Touch only
// raises lastUse and never re-keys, so a touch stays O(1) even when a
// process touches its whole resident set at one instant.
//
// Keys only rise (key <= lastUse always holds), so the order is repaired
// lazily at the root: top refreshes a stale root and sifts it down until
// the root's key is its true lastUse. A fresh root's true key is then at
// most every other entry's snapshot, and each snapshot is at most that
// entry's true key, so the root is exactly the least-recently-used page.
// seq is unique, so (lastUse, seq) is a total order and ties are broken
// the same way however the heap is laid out.
type lruHeap []*Page

// lruLess orders heap entries by snapshot key, then allocation order.
func lruLess(a, b *Page) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// push adds the page with a fresh key.
func (h *lruHeap) push(p *Page) {
	p.key = p.lastUse
	p.hidx = len(*h)
	*h = append(*h, p)
	h.up(p.hidx)
}

// remove takes the page out of the heap.
func (h *lruHeap) remove(p *Page) {
	s := *h
	i, last := p.hidx, len(s)-1
	if i != last {
		s[i] = s[last]
		s[i].hidx = i
	}
	s[last] = nil
	*h = s[:last]
	if i != last && !h.down(i) {
		h.up(i)
	}
	p.hidx = -1
}

// top returns the least-recently-used page, or nil when the heap is
// empty, first refreshing stale keys at the root.
func (h lruHeap) top() *Page {
	if len(h) == 0 {
		return nil
	}
	for r := h[0]; r.key != r.lastUse; r = h[0] {
		r.key = r.lastUse
		h.down(0)
	}
	return h[0]
}

func (h lruHeap) up(i int) {
	p := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !lruLess(p, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].hidx = i
		i = parent
	}
	h[i] = p
	p.hidx = i
}

// down sifts the entry at i toward the leaves and reports whether it
// moved.
func (h lruHeap) down(i int) bool {
	p, start, n := h[i], i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && lruLess(h[r], h[c]) {
			c = r
		}
		if !lruLess(h[c], p) {
			break
		}
		h[i] = h[c]
		h[i].hidx = i
		i = c
	}
	h[i] = p
	p.hidx = i
	return i > start
}
