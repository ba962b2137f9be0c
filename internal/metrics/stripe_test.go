package metrics

import "testing"

// TestStripeOfSeparatesAlignedStacks: goroutines running the same code
// sit at the same offset in power-of-two sized stacks, so their probe
// addresses differ by multiples of the stack size. Whatever that size —
// and in particular past 32KiB, where bits 11-14 of the address no longer
// differ at all — a few neighbouring stacks must almost never share a
// stripe (a carry between 4-bit groups can still fold two together).
func TestStripeOfSeparatesAlignedStacks(t *testing.T) {
	for size := uintptr(2 << 10); size <= 1<<20; size <<= 1 {
		for _, n := range []int{2, 4} {
			const trials = 1024
			shared := 0
			for trial := uintptr(0); trial < trials; trial++ {
				base := 0xc000000000 + trial*37*size + 0x717%size
				seen := map[int]bool{}
				for k := 0; k < n; k++ {
					i := stripeOf(base + uintptr(k)*size)
					if i < 0 || i >= Stripes {
						t.Fatalf("stripeOf out of range: %d", i)
					}
					seen[i] = true
				}
				if len(seen) < n {
					shared++
				}
			}
			if shared > trials/20 {
				t.Errorf("%d neighbouring stacks of %dKiB share a stripe in %d of %d placements", n, size>>10, shared, trials)
			}
		}
	}
}
