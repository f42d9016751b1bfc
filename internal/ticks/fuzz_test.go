package ticks

import "testing"

// Native fuzz targets; their seed corpora also run under plain
// `go test`. Fuzz with e.g.:
//
//	go test -fuzz FuzzFracAdd -fuzztime 30s ./internal/ticks

// FuzzTickConversions checks microsecond/millisecond round trips.
func FuzzTickConversions(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(500))
	f.Add(int64(159_000_000))
	f.Fuzz(func(t *testing.T, us int64) {
		if us < 0 || us > 200_000_000 {
			t.Skip()
		}
		tk := FromMicroseconds(us)
		if got := tk.Microseconds(); got != us {
			t.Fatalf("us round trip: %d -> %v -> %d", us, tk, got)
		}
		d := tk.Duration()
		back := FromDuration(d)
		if diff := back - tk; diff < -1 || diff > 1 {
			t.Fatalf("duration round trip: %v -> %v -> %v", tk, d, back)
		}
	})
}
