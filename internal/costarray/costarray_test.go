package costarray

import (
	"math/rand"
	"testing"
	"testing/quick"

	"locusroute/internal/geom"
)

func grid10x40() geom.Grid { return geom.Grid{Channels: 10, Grids: 40} }

func TestNewPanicsOnInvalidGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New with invalid grid must panic")
		}
	}()
	New(geom.Grid{})
}

func TestAtSetAdd(t *testing.T) {
	a := New(grid10x40())
	a.Set(3, 4, 7)
	if got := a.At(3, 4); got != 7 {
		t.Errorf("At = %d, want 7", got)
	}
	if got := a.Add(3, 4, -2); got != 5 {
		t.Errorf("Add returned %d, want 5", got)
	}
	if got := a.At(3, 4); got != 5 {
		t.Errorf("At after Add = %d, want 5", got)
	}
	if got := a.At(4, 3); got != 0 {
		t.Errorf("untouched cell = %d, want 0", got)
	}
}

func TestIndexRowMajor(t *testing.T) {
	a := New(grid10x40())
	if a.Index(0, 0) != 0 || a.Index(39, 0) != 39 || a.Index(0, 1) != 40 {
		t.Errorf("Index not row-major: %d %d %d",
			a.Index(0, 0), a.Index(39, 0), a.Index(0, 1))
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(grid10x40())
	a.Set(1, 1, 9)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone must equal original")
	}
	b.Set(1, 1, 3)
	if a.At(1, 1) != 9 {
		t.Errorf("mutating clone must not affect original")
	}
}

func TestSumRect(t *testing.T) {
	a := New(grid10x40())
	for y := 0; y < 10; y++ {
		for x := 0; x < 40; x++ {
			a.Set(x, y, 1)
		}
	}
	if got := a.SumRect(geom.R(0, 0, 39, 9)); got != 400 {
		t.Errorf("full sum = %d, want 400", got)
	}
	if got := a.SumRect(geom.R(5, 5, 6, 6)); got != 4 {
		t.Errorf("2x2 sum = %d, want 4", got)
	}
	// Clipping: rect partly off grid.
	if got := a.SumRect(geom.R(38, 8, 100, 100)); got != 4 {
		t.Errorf("clipped sum = %d, want 4", got)
	}
}

func TestCopyAddZeroRect(t *testing.T) {
	g := grid10x40()
	a, b := New(g), New(g)
	for y := 0; y < 10; y++ {
		for x := 0; x < 40; x++ {
			b.Set(x, y, int32(x+y))
		}
	}
	r := geom.R(2, 2, 5, 5)
	a.CopyRect(b, r)
	for y := 0; y < 10; y++ {
		for x := 0; x < 40; x++ {
			want := int32(0)
			if geom.Pt(x, y).In(r) {
				want = int32(x + y)
			}
			if a.At(x, y) != want {
				t.Fatalf("CopyRect cell (%d,%d) = %d, want %d", x, y, a.At(x, y), want)
			}
		}
	}
	a.AddRect(b, r)
	if a.At(3, 3) != 12 {
		t.Errorf("AddRect cell = %d, want 12", a.At(3, 3))
	}
	a.ZeroRect(r)
	if a.SumRect(r) != 0 {
		t.Errorf("ZeroRect left nonzero cells")
	}
}

func TestChangedBounds(t *testing.T) {
	a := New(grid10x40())
	bb, scanned := a.ChangedBounds(a.Grid().Bounds())
	if !bb.Empty() {
		t.Errorf("empty array must have empty changed bounds, got %v", bb)
	}
	if scanned != 400 {
		t.Errorf("scanned = %d, want 400", scanned)
	}
	a.Set(5, 2, 1)
	a.Set(20, 7, -1)
	bb, _ = a.ChangedBounds(a.Grid().Bounds())
	want := geom.R(5, 2, 20, 7)
	if bb != want {
		t.Errorf("ChangedBounds = %v, want %v", bb, want)
	}
	// Restricted scan misses changes outside the window.
	bb, _ = a.ChangedBounds(geom.R(0, 0, 10, 9))
	if bb != geom.R(5, 2, 5, 2) {
		t.Errorf("restricted ChangedBounds = %v", bb)
	}
}

func TestExtractApplyAbsoluteRoundTrip(t *testing.T) {
	g := grid10x40()
	a := New(g)
	rng := rand.New(rand.NewSource(42))
	for y := 0; y < g.Channels; y++ {
		for x := 0; x < g.Grids; x++ {
			a.Set(x, y, int32(rng.Intn(8)))
		}
	}
	r, vals := a.ExtractRect(geom.R(3, 1, 30, 8))
	b := New(g)
	if err := b.ApplyAbsolute(r, vals); err != nil {
		t.Fatal(err)
	}
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if b.At(x, y) != a.At(x, y) {
				t.Fatalf("round trip mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestApplyErrors(t *testing.T) {
	a := New(grid10x40())
	if err := a.ApplyAbsolute(geom.R(0, 0, 100, 100), make([]int32, 4)); err == nil {
		t.Errorf("expected out-of-grid error")
	}
	if err := a.ApplyAbsolute(geom.R(0, 0, 1, 1), make([]int32, 3)); err == nil {
		t.Errorf("expected payload-size error")
	}
	if err := a.ApplyDelta(geom.R(0, 0, 1, 1), make([]int32, 5)); err == nil {
		t.Errorf("expected payload-size error for delta")
	}
}

func TestApplyDeltaAccumulates(t *testing.T) {
	a := New(grid10x40())
	r := geom.R(0, 0, 1, 1) // 2x2
	vals := []int32{1, 2, 3, 4}
	if err := a.ApplyDelta(r, vals); err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyDelta(r, vals); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 8 {
		t.Errorf("delta accumulate = %d, want 8", a.At(1, 1))
	}
}

func TestCircuitHeight(t *testing.T) {
	a := New(grid10x40())
	if a.CircuitHeight() != 0 {
		t.Errorf("empty array height must be 0")
	}
	a.Set(0, 0, 3)
	a.Set(39, 0, 5) // channel 0 max = 5
	a.Set(7, 4, 2)  // channel 4 max = 2
	if got := a.CircuitHeight(); got != 7 {
		t.Errorf("CircuitHeight = %d, want 7", got)
	}
}

func TestNonZeroCells(t *testing.T) {
	a := New(grid10x40())
	a.Set(0, 0, 1)
	a.Set(1, 0, -1)
	a.Set(1, 0, 0) // back to zero
	if got := a.NonZeroCells(); got != 1 {
		t.Errorf("NonZeroCells = %d, want 1", got)
	}
}

// Property: ExtractRect + ApplyAbsolute onto a zero array reproduces
// exactly the clipped window, and SumRect of the window matches the sum of
// the payload.
func TestExtractApplyProperty(t *testing.T) {
	g := geom.Grid{Channels: 8, Grids: 16}
	f := func(seed int64, x0, y0, w, h uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(g)
		for i := 0; i < 40; i++ {
			a.Add(rng.Intn(g.Grids), rng.Intn(g.Channels), int32(rng.Intn(5)-2))
		}
		r := geom.R(int(x0)%20, int(y0)%10, int(x0)%20+int(w)%8, int(y0)%10+int(h)%8)
		cl, vals := a.ExtractRect(r)
		b := New(g)
		if cl.Empty() {
			return vals == nil
		}
		if err := b.ApplyAbsolute(cl, vals); err != nil {
			return false
		}
		var sum int64
		for _, v := range vals {
			sum += int64(v)
		}
		return b.SumRect(cl) == a.SumRect(cl) && sum == a.SumRect(cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeatmapDimensions(t *testing.T) {
	a := New(geom.Grid{Channels: 4, Grids: 200})
	a.Set(0, 0, 5)
	a.Set(199, 3, 10)
	out := a.Heatmap(50)
	lines := 0
	for _, line := range []byte(out) {
		if line == '\n' {
			lines++
		}
	}
	if lines != 4 {
		t.Errorf("heatmap must have one line per channel, got %d", lines)
	}
	// Width respected: each line at most 50 chars.
	for _, line := range splitLines(out) {
		if len(line) > 50 {
			t.Errorf("line too wide: %d", len(line))
		}
	}
	// The hottest cell renders the heaviest rune.
	if out[len(out)-2] != '@' {
		t.Errorf("peak cell must render '@', got %q", out[len(out)-2])
	}
}

func TestHeatmapEmptyArray(t *testing.T) {
	a := New(geom.Grid{Channels: 2, Grids: 10})
	out := a.Heatmap(80)
	for _, line := range splitLines(out) {
		for _, ch := range line {
			if ch != ' ' {
				t.Errorf("empty array must render blank, got %q", ch)
			}
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func TestAtomicSnapshot(t *testing.T) {
	a := NewAtomic(geom.Grid{Channels: 4, Grids: 8})
	a.Add(3, 2, 5)
	a.Add(3, 2, -2)
	snap := a.Snapshot()
	if snap.At(3, 2) != 3 {
		t.Errorf("snapshot = %d, want 3", snap.At(3, 2))
	}
	if a.At(0, 0) != 0 {
		t.Errorf("untouched cell nonzero")
	}
}
