package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

// The paper's central safety claim, stated as a property: with runtime
// faults confined to ONE chip (any granularity, any persistence, any
// count), plus scaling faults anywhere, an XED read returns either the
// correct data or an explicit DUE — UNLESS the on-die code itself was
// silently defeated (a multi-bit pattern aliasing to a valid codeword,
// ≤0.8% of word damage per Table II). Every silently-wrong read must
// trace back to such an on-die miss; absent one, XED never lies.
func TestXEDNeverSilentlyWrongSingleFaultyChip(t *testing.T) {
	rng := simrand.New(0xfa17)
	geom := dram.Geometry{Banks: 2, RowsPerBank: 16, ColsPerRow: 128}

	for trial := 0; trial < 120; trial++ {
		rank := dram.MustNewRank(9, geom, func() ecc.Code64 { return ecc.NewCRC8ATM() })
		ctrl := NewController(rank, rng.Uint64())

		// Scaling faults on every chip at an exaggerated rate.
		for i := 0; i < 9; i++ {
			rank.Chip(i).SetScaling(dram.ScalingProfile{Rate: 5e-4, Seed: rng.Uint64()})
		}

		// Write a working set.
		type entry struct {
			addr dram.WordAddr
			data Line
		}
		var set []entry
		used := map[dram.WordAddr]bool{}
		for len(set) < 24 {
			a := dram.WordAddr{Bank: rng.Intn(geom.Banks), Row: rng.Intn(geom.RowsPerBank), Col: rng.Intn(geom.ColsPerRow)}
			if used[a] {
				continue
			}
			used[a] = true
			l := lineOf(rng)
			ctrl.WriteLine(a, l)
			set = append(set, entry{a, l})
		}

		// Random faults, all in one chip.
		victim := rng.Intn(9)
		nFaults := 1 + rng.Intn(4)
		for f := 0; f < nFaults; f++ {
			transient := rng.Bernoulli(0.4)
			a := set[rng.Intn(len(set))].addr
			var fault dram.Fault
			switch rng.Intn(6) {
			case 0:
				fault = dram.NewBitFault(a, rng.Intn(72), transient)
			case 1:
				mask := rng.Uint64()
				if mask == 0 {
					mask = 0b11
				}
				fault = dram.NewWordFault(a, mask, uint8(rng.Uint64()), transient)
			case 2:
				fault = dram.NewColumnFault(a.Bank, a.Col, transient, rng.Uint64())
			case 3:
				fault = dram.NewRowFault(a.Bank, a.Row, transient, rng.Uint64())
			case 4:
				fault = dram.NewBankFault(a.Bank, transient, rng.Uint64())
			default:
				fault = dram.NewChipFault(transient, rng.Uint64())
			}
			rank.Chip(victim).InjectFault(fault)
		}

		for _, e := range set {
			res := ctrl.ReadLine(e.addr)
			if res.Outcome == OutcomeDUE {
				continue // honest refusal is allowed
			}
			if res.Data != e.data && !anySilentCorrupt(rank) {
				t.Fatalf("trial %d: silent corruption at %v without any on-die miss (victim chip %d, outcome %v)",
					trial, e.addr, victim, res.Outcome)
			}
		}
	}
}

// anySilentCorrupt reports whether any chip's on-die code was silently
// defeated at least once — the only licence for a wrong non-DUE read.
func anySilentCorrupt(rank *dram.Rank) bool {
	for i := 0; i < rank.Chips(); i++ {
		if rank.Chip(i).SilentCorrupt() > 0 {
			return true
		}
	}
	return false
}

// The same property for XED-on-Chipkill with up to TWO faulty chips.
func TestXEDChipkillNeverSilentlyWrongTwoFaultyChips(t *testing.T) {
	rng := simrand.New(0xca5e)
	geom := dram.Geometry{Banks: 2, RowsPerBank: 8, ColsPerRow: 32}

	for trial := 0; trial < 80; trial++ {
		rank := dram.MustNewRank(18, geom, func() ecc.Code64 { return ecc.NewCRC8ATM() })
		ctrl := NewXEDChipkillController(rank, rng.Uint64())

		type entry struct {
			addr dram.WordAddr
			data Block
		}
		var set []entry
		used := map[dram.WordAddr]bool{}
		for len(set) < 12 {
			a := dram.WordAddr{Bank: rng.Intn(geom.Banks), Row: rng.Intn(geom.RowsPerBank), Col: rng.Intn(geom.ColsPerRow)}
			if used[a] {
				continue
			}
			used[a] = true
			b := blockOfRng(rng)
			ctrl.WriteBlock(a, b)
			set = append(set, entry{a, b})
		}

		v1 := rng.Intn(18)
		v2 := rng.Intn(18)
		for _, victim := range []int{v1, v2} {
			a := set[rng.Intn(len(set))].addr
			var fault dram.Fault
			switch rng.Intn(3) {
			case 0:
				fault = dram.NewRowFault(a.Bank, a.Row, rng.Bernoulli(0.3), rng.Uint64())
			case 1:
				fault = dram.NewBankFault(a.Bank, rng.Bernoulli(0.3), rng.Uint64())
			default:
				fault = dram.NewChipFault(rng.Bernoulli(0.3), rng.Uint64())
			}
			rank.Chip(victim).InjectFault(fault)
		}

		for _, e := range set {
			got, outcome := ctrl.ReadBlock(e.addr)
			if outcome == OutcomeDUE {
				continue
			}
			if got != e.data && !anySilentCorrupt(rank) {
				t.Fatalf("trial %d: silent corruption without any on-die miss (victims %d,%d, outcome %v)",
					trial, v1, v2, outcome)
			}
		}
	}
}

// Fault-model consistency: if two faults in the same chip both cover some
// concrete address, Intersects must be true (no false negatives).
func TestCoversImpliesIntersects(t *testing.T) {
	rng := simrand.New(0xc0de)
	geom := dram.Geometry{Banks: 4, RowsPerBank: 8, ColsPerRow: 8}
	mkFault := func() dram.Fault {
		a := dram.WordAddr{Bank: rng.Intn(4), Row: rng.Intn(8), Col: rng.Intn(8)}
		switch rng.Intn(6) {
		case 0:
			return dram.NewBitFault(a, rng.Intn(72), false)
		case 1:
			return dram.NewWordFault(a, 1, 0, false)
		case 2:
			return dram.NewColumnFault(a.Bank, a.Col, false, 1)
		case 3:
			return dram.NewRowFault(a.Bank, a.Row, false, 1)
		case 4:
			return dram.NewBankFault(a.Bank, false, 1)
		default:
			return dram.NewChipFault(false, 1)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		f1, f2 := mkFault(), mkFault()
		shared := false
		for b := 0; b < geom.Banks && !shared; b++ {
			for r := 0; r < geom.RowsPerBank && !shared; r++ {
				for c := 0; c < geom.ColsPerRow && !shared; c++ {
					a := dram.WordAddr{Bank: b, Row: r, Col: c}
					if f1.Covers(a) && f2.Covers(a) {
						shared = true
					}
				}
			}
		}
		if got := f1.Intersects(&f2); got != shared {
			t.Fatalf("trial %d: Intersects=%v but exhaustive overlap=%v\nf1=%+v\nf2=%+v",
				trial, got, shared, f1, f2)
		}
	}
}
