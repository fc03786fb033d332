package format

import (
	"os"
	"path/filepath"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

func writeChecksummed(t *testing.T, n int) (string, *particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 3, 0)
	path := filepath.Join(dir, "c.spd")
	hdr := DataHeader{LOD: lod.DefaultParams(), PayloadCRC: true}
	if err := writeBuf(nil, path, hdr, buf); err != nil {
		t.Fatal(err)
	}
	return path, buf
}

func TestPayloadChecksumRoundTrip(t *testing.T) {
	path, buf := writeChecksummed(t, 500)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if !df.Header.PayloadCRC {
		t.Fatal("flag not round-tripped")
	}
	if err := df.VerifyPayload(); err != nil {
		t.Errorf("pristine payload failed verification: %v", err)
	}
	all, err := df.ReadAll()
	if err != nil || !all.Equal(buf) {
		t.Error("checksummed file payload mismatch")
	}
}

func TestPayloadChecksumDetectsCorruption(t *testing.T) {
	path, _ := writeChecksummed(t, 200)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the payload (headers end well before
	// half the file).
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err) // header is intact; open succeeds
	}
	defer df.Close()
	if err := df.VerifyPayload(); err == nil {
		t.Error("corrupt payload passed verification")
	}
}

func TestVerifyPayloadWithoutChecksum(t *testing.T) {
	path, _ := writeTestDataFile(t, 10)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if err := df.VerifyPayload(); err == nil {
		t.Error("verification without stored checksum should fail")
	}
}

func TestChecksummedFileSizeValidation(t *testing.T) {
	path, _ := writeChecksummed(t, 50)
	raw, _ := os.ReadFile(path)
	// Dropping the trailing CRC must fail the size check.
	os.WriteFile(path, raw[:len(raw)-4], 0o644)
	if _, err := OpenDataFile(path); err == nil {
		t.Error("missing payload CRC trailer accepted")
	}
}

func TestScanProjected(t *testing.T) {
	path, buf := writeTestDataFile(t, 120)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	p, err := particle.Uintah().Project([]string{"density"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanProjected(df, 20, 80, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 60 {
		t.Fatalf("len = %d", got.Len())
	}
	want := buf.Slice(20, 80)
	wantDens := want.Float64Field(want.Schema().FieldIndex("density"))
	gotDens := got.Float64Field(got.Schema().FieldIndex("density"))
	for i := 0; i < 60; i++ {
		if got.Position(i) != want.Position(i) || gotDens[i] != wantDens[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Bad ranges and mismatched projections fail.
	if _, err := scanProjected(df, -1, 5, p); err == nil {
		t.Error("bad range accepted")
	}
	wrong, _ := particle.PositionOnly().Project(nil)
	if _, err := scanProjected(df, 0, 5, wrong); err == nil {
		t.Error("projection from wrong schema accepted")
	}
}
