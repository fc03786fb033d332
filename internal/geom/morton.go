package geom

// Morton (Z-order) keys give a cache- and disk-friendly linearization of
// 3D cell coordinates. The paper orders structured data by Z- or HZ-order
// (Section 3); spio uses Morton keys to order aggregation partitions on
// disk so that spatially-near files get near file indices, and as an
// optional within-file ordering ablation.

// MortonEncode3 interleaves the low 21 bits of x, y and z into a 63-bit
// Morton key (x in the least-significant position of each triple).
func MortonEncode3(x, y, z uint32) uint64 {
	return part1By2(x) | part1By2(y)<<1 | part1By2(z)<<2
}

// part1By2 spreads the low 21 bits of v so that there are two zero bits
// between each original bit.
func part1By2(v uint32) uint64 {
	x := uint64(v) & 0x1fffff // 21 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// MortonOfIdx returns the Morton key of an integer cell coordinate.
// Components must be non-negative and below 2^21.
func MortonOfIdx(i Idx3) uint64 {
	return MortonEncode3(uint32(i.X), uint32(i.Y), uint32(i.Z))
}
