package xrand

import "testing"

// fillLengths straddle the synthesizer's batch size of 256.
var fillLengths = []int{0, 1, 255, 256, 257}

func TestRandFillMatchesUint64(t *testing.T) {
	got, want := New(7), New(7)
	for round := 0; round < 3; round++ {
		for _, n := range fillLengths {
			buf := make([]uint64, n)
			got.Fill(buf)
			for i, g := range buf {
				if w := want.Uint64(); g != w {
					t.Fatalf("round %d len %d draw %d: Fill %d, Uint64 %d", round, n, i, g, w)
				}
			}
			// Interleave single draws between fills.
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("round %d len %d: Uint64 after Fill %d, want %d", round, n, g, w)
			}
		}
	}
}

func TestZipfFillMatchesNext(t *testing.T) {
	for i, sh := range zipfShapes {
		seed := int64(200 + i)
		got := NewZipf(New(seed), sh.theta, sh.n)
		want := NewZipf(New(seed), sh.theta, sh.n)
		ref := newRefZipf(New(seed), sh.theta, sh.n)
		for round := 0; round < 3; round++ {
			for _, n := range fillLengths {
				buf := make([]uint64, n)
				for j := range buf {
					buf[j] = ^uint64(0) // Fill must overwrite every slot
				}
				got.Fill(buf)
				for d, g := range buf {
					w := want.Next()
					if r := ref.Next(); g != w || g != r {
						t.Fatalf("theta=%v n=%d round %d len %d draw %d: Fill %d, Next %d, reference %d",
							sh.theta, sh.n, round, n, d, g, w, r)
					}
				}
				// Interleave a Next between fills.
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("theta=%v n=%d len %d: Next after Fill %d, want %d", sh.theta, sh.n, n, g, w)
				}
				ref.Next()
			}
		}
		// Both consumed the same number of draws from their streams; a
		// single-item Zipf consumed none.
		g, w := got.r.Uint64(), want.r.Uint64()
		if g != w {
			t.Fatalf("theta=%v n=%d: streams diverged", sh.theta, sh.n)
		}
		if sh.n == 1 && g != New(seed).Uint64() {
			t.Fatalf("single-item Zipf consumed its stream")
		}
	}
}

func BenchmarkZipfFill(b *testing.B) {
	zs := make([]*Zipf, 0, 7)
	for i, sh := range zipfShapes[:7] {
		zs = append(zs, NewZipf(New(1).Split(uint64(i+1)), sh.theta, sh.n))
	}
	var buf [256]uint64
	b.ResetTimer()
	var sum uint64
	// One op is one draw, as in BenchmarkZipfNext.
	for i := 0; i < b.N; i += len(buf) {
		zs[(i/len(buf))%len(zs)].Fill(buf[:])
		sum += buf[0]
	}
	benchSink = sum
}
