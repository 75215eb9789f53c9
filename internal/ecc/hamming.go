package ecc

// NewHamming returns the classic extended (72,64) Hamming SECDED code
// (Hamming 1950, extended with an overall parity bit). Check bits live at
// the power-of-two positions of the 72-bit codeword plus one overall parity
// bit, and the syndrome of a single-bit error spells the (1-based) position
// of the flipped bit in its low seven bits, with the overall parity in bit 7.
// The serial order is classical position order.
//
// The paper (§V-E, Table II) uses this code as the conventional On-Die ECC
// baseline and shows that its detection of *burst* errors — multiple flips
// confined to a few adjacent lanes, the signature of a chip-internal word
// failure — is as low as ~50%, which motivates CRC8-ATM instead.
func NewHamming() *LinearCode64 {
	dataPos, checkPos := hammingLayout()
	var h HMatrix72
	var serial [codeBits]int
	for i, p := range append(dataPos[:], checkPos[:]...) {
		h[i] = uint8(p) | 0x80 // every position is in the overall parity
		serial[p-1] = i
	}
	h[codeBits-1] = 0x80 // position 72, the parity bit, is in no Hamming check
	c := MustLinearCode64("(72,64) Hamming", h)
	c.serial = serial
	return c
}

// hammingLayout maps our systematic bit order to the classical codeword
// positions: positions 1..72 (1-based), where positions 1,2,4,8,16,32,64 are
// the seven Hamming check bits, position 72 is the overall parity bit, and
// the remaining 64 positions carry data bits in ascending order.
func hammingLayout() (dataPos [64]int, checkPos [8]int) {
	isPow2 := func(x int) bool { return x&(x-1) == 0 }
	d := 0
	c := 0
	for p := 1; p <= 71; p++ {
		if isPow2(p) {
			checkPos[c] = p
			c++
			continue
		}
		dataPos[d] = p
		d++
	}
	checkPos[7] = 72 // overall parity
	return dataPos, checkPos
}
