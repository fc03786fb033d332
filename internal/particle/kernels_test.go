package particle

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spio/internal/geom"
)

func TestEncodeRecordsIntoMatchesEncodeRecords(t *testing.T) {
	b := testBuffer(t, 41, 7)
	want := b.EncodeRecords(nil, 5, 30)
	got := make([]byte, (30-5)*b.Schema().Stride())
	b.EncodeRecordsInto(got, 5, 30)
	if !bytes.Equal(got, want) {
		t.Error("EncodeRecordsInto differs from EncodeRecords")
	}
}

func TestEncodeRecordsIntoSizePanics(t *testing.T) {
	b := testBuffer(t, 4, 1)
	for _, tc := range []struct {
		name string
		dst  int
		lo   int
		hi   int
	}{
		{"short dst", 3 * 124, 0, 4},
		{"long dst", 5 * 124, 0, 4},
		{"bad range", 2 * 124, 3, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			b.EncodeRecordsInto(make([]byte, tc.dst), tc.lo, tc.hi)
		}()
	}
}

func TestDecodeRecordsAtRoundTrip(t *testing.T) {
	src := testBuffer(t, 23, 11)
	data := src.Encode()

	dst := NewBuffer(Uintah(), 0)
	dst.SetLen(30)
	if err := dst.DecodeRecordsAt(data, 4); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Slice(4, 27), src; !got.Equal(want) {
		t.Error("decoded region differs from source")
	}
	// Surrounding particles stay zero.
	for _, i := range []int{0, 3, 27, 29} {
		if p := dst.Position(i); p.X != 0 || p.Y != 0 || p.Z != 0 {
			t.Errorf("particle %d disturbed: %v", i, p)
		}
	}
}

func TestDecodeRecordsAtErrors(t *testing.T) {
	b := NewBuffer(Uintah(), 0)
	b.SetLen(2)
	rec := make([]byte, 124)
	if err := b.DecodeRecordsAt(rec[:100], 0); err == nil {
		t.Error("misaligned payload: no error")
	}
	if err := b.DecodeRecordsAt(rec, 2); err == nil {
		t.Error("out-of-range region: no error")
	}
	if err := b.DecodeRecordsAt(rec, -1); err == nil {
		t.Error("negative offset: no error")
	}
}

func TestSetLenZerosAndTruncates(t *testing.T) {
	b := testBuffer(t, 8, 3)
	keep := b.Slice(0, 4)
	b.SetLen(4)
	if !b.Equal(keep) {
		t.Error("truncation changed surviving particles")
	}
	b.SetLen(6)
	if b.Len() != 6 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !b.Slice(0, 4).Equal(keep) {
		t.Error("growth changed surviving particles")
	}
	// Regrown region must be zero even though the old capacity held the
	// truncated particles' values.
	for i := 4; i < 6; i++ {
		if p := b.Position(i); p.X != 0 || p.Y != 0 || p.Z != 0 {
			t.Errorf("regrown particle %d not zeroed: %v", i, p)
		}
	}
}

func TestFieldRangesMatchesNaiveScan(t *testing.T) {
	b := testBuffer(t, 100, 17)
	mins, maxs := b.FieldRanges()
	s := b.Schema()
	col := 0
	for fi := 0; fi < s.NumFields(); fi++ {
		f := s.Field(fi)
		for k := 0; k < f.Components; k++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for i := 0; i < b.Len(); i++ {
				var v float64
				if f.Kind == Float64 {
					v = b.Float64Field(fi)[i*f.Components+k]
				} else {
					v = float64(b.Float32Field(fi)[i*f.Components+k])
				}
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			if mins[col] != mn || maxs[col] != mx {
				t.Errorf("field %d comp %d: got [%v,%v], want [%v,%v]", fi, k, mins[col], maxs[col], mn, mx)
			}
			col++
		}
	}
}

// TestFieldRangesNaNPropagates pins the NaN contract: one NaN component
// poisons that component's min and max, exactly as folding math.Min and
// math.Max would.
func TestFieldRangesNaNPropagates(t *testing.T) {
	b := NewBuffer(PositionOnly(), 4)
	b.Append([]float64{1, 2, 3})
	b.Append([]float64{math.NaN(), 5, 6})
	b.Append([]float64{-7, 8, 9})
	mins, maxs := b.FieldRanges()
	if !math.IsNaN(mins[0]) || !math.IsNaN(maxs[0]) {
		t.Errorf("NaN column: got [%v,%v], want [NaN,NaN]", mins[0], maxs[0])
	}
	if mins[1] != 2 || maxs[1] != 8 {
		t.Errorf("clean column y: got [%v,%v]", mins[1], maxs[1])
	}
	if mins[2] != 3 || maxs[2] != 9 {
		t.Errorf("clean column z: got [%v,%v]", mins[2], maxs[2])
	}
}

func TestFieldRangesSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := NewBuffer(PositionOnly(), 2)
	b.Append([]float64{0, negZero, 1})
	b.Append([]float64{negZero, 0, 2})
	mins, maxs := b.FieldRanges()
	// -0 orders below +0 for both min and max, like math.Min/math.Max.
	if !math.Signbit(mins[0]) || math.Signbit(maxs[0]) {
		t.Errorf("x: min=%v (signbit %v) max=%v (signbit %v)",
			mins[0], math.Signbit(mins[0]), maxs[0], math.Signbit(maxs[0]))
	}
	if !math.Signbit(mins[1]) || math.Signbit(maxs[1]) {
		t.Errorf("y: min=%v (signbit %v) max=%v (signbit %v)",
			mins[1], math.Signbit(mins[1]), maxs[1], math.Signbit(maxs[1]))
	}
}

func TestFieldRangesEmpty(t *testing.T) {
	b := NewBuffer(Uintah(), 0)
	if mins, maxs := b.FieldRanges(); mins != nil || maxs != nil {
		t.Errorf("empty buffer: got %v/%v, want nil/nil", mins, maxs)
	}
}

func BenchmarkDecodeRecordsAt(b *testing.B) {
	src := Uniform(Uintah(), geom.NewBox(geom.V3(0, 0, 0), geom.V3(2, 3, 4)), 8192, 1, 0)
	data := src.Encode()
	dst := NewBuffer(Uintah(), 0)
	dst.SetLen(8192)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.DecodeRecordsAt(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRecordsInto(b *testing.B) {
	src := Uniform(Uintah(), geom.NewBox(geom.V3(0, 0, 0), geom.V3(2, 3, 4)), 8192, 1, 0)
	dst := make([]byte, 8192*src.Schema().Stride())
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.EncodeRecordsInto(dst, 0, 8192)
	}
}

func ExampleBuffer_SetLen() {
	b := NewBuffer(PositionOnly(), 0)
	b.SetLen(3)
	fmt.Println(b.Len())
	// Output: 3
}
