package vec

import "sync"

// span is one worker's contiguous half-open range [lo, hi). Result order
// never depends on the split, and the error a per-row evaluation surfaces
// (first error in worker order) is the first failing row's.
type span struct{ lo, hi int }

// rowSpans partitions n rows into at most workers contiguous spans of
// near-equal size, ascending (the same split as engine.rowSpans).
func rowSpans(n, workers int) []span {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	sps := make([]span, 0, workers)
	per := n / workers
	extra := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		sps = append(sps, span{lo: lo, hi: hi})
		lo = hi
	}
	return sps
}

// alignedSpans partitions n rows on 64-bit word boundaries so concurrent
// bitmap kernels never share a word. Only used for error-free compiled
// kernels, where the split cannot affect results.
func alignedSpans(n, workers int) []span {
	sps := rowSpans((n+63)/64, workers)
	for i := range sps {
		sps[i].lo <<= 6
		sps[i].hi <<= 6
	}
	if len(sps) > 0 && sps[len(sps)-1].hi > n {
		sps[len(sps)-1].hi = n
	}
	return sps
}

// colSpans partitions column indexes across workers (column-parallel
// decode and conversion).
func colSpans(cols, workers int) []span { return rowSpans(cols, workers) }

// runSpans executes fn over every span, one goroutine per span, returning
// the first error in span order.
func runSpans(sps []span, fn func(w int, sp span) error) error {
	if len(sps) == 0 {
		return nil
	}
	if len(sps) == 1 {
		return fn(0, sps[0])
	}
	errs := make([]error, len(sps))
	var wg sync.WaitGroup
	for w := range sps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, sps[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
