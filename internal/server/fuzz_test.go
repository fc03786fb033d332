package server

import (
	"bytes"
	"testing"
	"time"

	"spio/internal/binio"
	"spio/internal/geom"
	rdr "spio/internal/reader"
)

// FuzzServeRequest executes any request frame decodeRequest accepts
// through a Front over a small real mount, on a connection of its own:
// the frame always gets a response frame — whatever its status — the
// daemon does not panic, and the same connection answers the next
// request. The seeds are each op's request, the zero-axis density grid
// that once panicked the daemon, and the limit cases of
// TestRequestBoundsEnforced.
func FuzzServeRequest(f *testing.F) {
	dir := f.TempDir()
	writeDataset(f, dir, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 50)
	s := New(Config{Workers: 2})
	if err := s.Mount("sim", dir); err != nil {
		f.Fatal(err)
	}
	addr := startServer(f, s)
	box := geom.NewBox(geom.V3(0.2, 0.1, 0.3), geom.V3(0.7, 0.9, 0.6))
	for _, r := range []*rdr.Request{
		{Op: opMeta},
		{Op: opStats},
		{Op: opList},
		{Op: rdr.OpQueryBox, Box: box, Options: rdr.Options{Fields: []string{"density"}}},
		{Op: rdr.OpQueryBox, Box: geom.UnitBox(), Options: rdr.Options{NoFilter: true, SkipLevels: 1, Levels: 2, Readers: 4}},
		{Op: rdr.OpKNN, Point: box.Center(), K: 5},
		{Op: rdr.OpHalo, Box: box, Halo: 0.0625},
		{Op: rdr.OpDensityGrid, Dims: geom.I3(4, 2, 1), Options: rdr.Options{Levels: 2, Readers: 2}},
		{Op: rdr.OpDensityGrid, Dims: geom.I3(4, 2, 1), Flags: rdr.FlagRawDensity, Options: rdr.Options{PerFileBase: 9}},
		{Op: rdr.OpDensityGrid, Dims: geom.I3(0, 4, 4)},
		{Op: rdr.OpKNN, K: maxReqK + 1},
		{Op: rdr.OpQueryBox, Options: rdr.Options{Levels: 3, SkipLevels: 3}},
		{Op: rdr.OpDensityGrid, K: maxReqK, Dims: geom.I3(1<<11, 1<<11, 1),
			Options: rdr.Options{Levels: maxReqLevels, SkipLevels: maxReqLevels - 1, Readers: maxReqReaders}},
	} {
		var fb bytes.Buffer
		encodeRequest(binio.NewWriter(&fb), "sim", r)
		f.Add(fb.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > reqFrameMax {
			return
		}
		d := binio.NewReader(bytes.NewReader(body), "spiod")
		if _, _, err := decodeRequest(d); err != nil || d.N() != int64(len(body)) {
			return // the front refuses it, answers and hangs up; FuzzServeRequest is about what it executes
		}
		c, err := Dial(addr, WithCallTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.armDeadline()
		if err := sendBody(c.conn, body); err != nil {
			t.Fatal(err)
		}
		// A bare read of the response: a payload behind an OK status is
		// refused as bytes after it, and skipped.
		if err := c.readResp(nil); c.in.cut {
			t.Fatalf("no response frame: %v", err)
		}
		if _, err := c.List(); err != nil {
			t.Fatalf("the request after it: %v", err)
		}
	})
}
