package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"mecoffload/internal/mec"
)

// ApplyArrivals re-draws the arrival slots of an existing workload
// uniformly over [0, horizon), preserving everything else. Request IDs are
// renumbered to match the new time order; realization state is cleared.
func ApplyArrivals(reqs []*mec.Request, horizon int, rng *rand.Rand) error {
	if horizon <= 0 {
		return fmt.Errorf("%w: n=%d horizon=%d", ErrBadConfig, len(reqs), horizon)
	}
	for i, slot := range drawArrivals(len(reqs), horizon, rng) {
		reqs[i].ArrivalSlot = slot
		reqs[i].ResetRealization()
		// The slots are sorted, so IDs stay aligned with time.
		reqs[i].ID = i
	}
	return nil
}

// drawArrivals returns n arrival slots drawn independently and uniformly
// from [0, horizon), one rng.Intn each, sorted ascending; horizon 0 puts
// every arrival at slot 0 and draws nothing.
func drawArrivals(n, horizon int, rng *rand.Rand) []int {
	out := make([]int, n)
	if horizon > 0 {
		for i := range out {
			out[i] = rng.Intn(horizon)
		}
	}
	slices.Sort(out)
	return out
}
