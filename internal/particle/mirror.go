package particle

import "fmt"

// Encoded mirror: a buffer assembled from wire payloads can carry the
// AoS record encoding of its contents alongside the SoA columns, because
// the assembler already had those exact bytes in hand. Record encoding
// is bit-lossless both ways, so re-encoding a decoded buffer reproduces
// the wire bytes — the mirror just skips that whole SoA -> AoS transpose
// for consumers that want the encoded form (the data-file writer).
//
// The mirror is a cache of the buffer's current contents: every mutating
// Buffer method drops it. Two aliasing holes the methods cannot see are
// part of the caller contract instead: writing through a slice obtained
// from Float64Field/Float32Field, and DecodeRecordsAt (which runs
// concurrently from the decode pool and therefore must not touch shared
// mirror state) — callers on those paths must attach the mirror only
// after all such writes are done, which is how the exchange uses it.

// SetEncodedMirror attaches data as the buffer's cached record encoding,
// taking ownership of the slice. data must be exactly the encoded
// payload size (Bytes()) and must hold the encoding of the buffer's
// current contents; attaching anything else corrupts downstream writers.
func (b *Buffer) SetEncodedMirror(data []byte) {
	if int64(len(data)) != b.Bytes() {
		panic(fmt.Sprintf("particle: encoded mirror has %d bytes, buffer encodes to %d", len(data), b.Bytes()))
	}
	b.aos = data
}

// EncodedMirror returns the cached record encoding attached by
// SetEncodedMirror, or nil. The slice aliases buffer-owned memory: it is
// valid until the buffer is mutated or recycled.
func (b *Buffer) EncodedMirror() []byte { return b.aos }

// dropMirror invalidates the cached encoding; every mutating method
// calls it. The slice goes back to the AoS pool — the owner mutating the
// buffer is single-threaded by the Buffer's general contract, so nothing
// can still be reading the mirror.
func (b *Buffer) dropMirror() {
	if b.aos != nil {
		PutAoS(b.aos)
		b.aos = nil
	}
}
