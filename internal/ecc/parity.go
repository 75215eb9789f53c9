package ecc

// RAID-3 style XOR parity across the data chips of a DIMM (§V-C). During a
// write, the parity of the eight 64-bit data beats is stored in the ninth
// chip; on a read the controller can (a) verify that the XOR of all nine
// words is zero, and (b) reconstruct any single erased word from the other
// eight — the erasure position being supplied by a catch-word.

// ParityWords is the number of data words covered by one parity word on a
// 9-chip x8 ECC-DIMM: one 64-bit beat from each of the eight data chips.
const ParityWords = 8

// Parity returns the XOR of the given data words. On a 9-chip DIMM words
// holds the 8 data-chip beats; the result is stored in the parity chip.
func Parity(words []uint64) uint64 {
	var p uint64
	for _, w := range words {
		p ^= w
	}
	return p
}

// CheckParity reports whether parity is consistent with words, i.e.
// Equation (1) of the paper: parity ⊕ D0 ⊕ … ⊕ D7 = 0.
func CheckParity(words []uint64, parity uint64) bool {
	return Parity(words) == parity
}

// Reconstruct recovers the word at index erased using the parity word and
// the remaining data words, per Equation (3): D3 = D0⊕D1⊕D2⊕Parity⊕D4⊕…⊕D7.
// The value currently stored at words[erased] is ignored. It panics if
// erased is out of range.
func Reconstruct(words []uint64, parity uint64, erased int) uint64 {
	if erased < 0 || erased >= len(words) {
		panic("ecc: Reconstruct erase index out of range")
	}
	v := parity
	for i, w := range words {
		if i != erased {
			v ^= w
		}
	}
	return v
}
