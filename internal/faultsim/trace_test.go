package faultsim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

func TestTraceRoundTripJSON(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranRow, false, 200000}, {dram.GranBit, true, 500000}}
	tr, err := CaptureTrace(cfg, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Trials) != len(tr.Trials) || back.Seed != tr.Seed {
		t.Fatal("trace shape lost in round trip")
	}
	for i := range tr.Trials {
		if len(back.Trials[i]) != len(tr.Trials[i]) {
			t.Fatalf("trial %d record count lost", i)
		}
		for j := range tr.Trials[i] {
			a, b := tr.Trials[i][j], back.Trials[i][j]
			if a.Chip != b.Chip || a.Gran != b.Gran || a.Start != b.Start || a.Range != b.Range {
				t.Fatalf("trial %d record %d mutated: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestTraceJudgeMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	const trials = 30000
	const seed = 77
	tr, err := CaptureTrace(cfg, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	judged, err := tr.Judge([]Scheme{NewXED(), NewSECDED()})
	if err != nil {
		t.Fatal(err)
	}
	// A single-worker Run with the worker-0 derived seed consumes the
	// same stream the capture did... worker seeds are transformed, so
	// instead compare against judging the same trace twice and against
	// plausibility bounds from Run.
	judged2, err := tr.Judge([]Scheme{NewXED(), NewSECDED()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range judged.Results {
		if judged.Results[i].Failures != judged2.Results[i].Failures {
			t.Fatal("judging is not deterministic")
		}
	}
	ran, err := Run(cfg, []Scheme{NewXED(), NewSECDED()}, trials, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range judged.Results {
		a := judged.Results[i].Probability()
		b := ran.Results[i].Probability()
		// Different RNG stream partitioning: expect statistical, not
		// exact, agreement.
		if b > 0.001 && (a < b*0.7 || a > b*1.4) {
			t.Fatalf("%s: judged %v vs run %v", judged.Results[i].SchemeName, a, b)
		}
		if judged.Results[i].DUEs+judged.Results[i].SDCs != judged.Results[i].Failures {
			t.Fatal("kinds do not partition failures")
		}
	}
}

func TestTraceApplyToChip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranBank, false, 3000000}}
	tr, err := CaptureTrace(cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trials[0]) == 0 {
		t.Skip("no faults drawn at this seed")
	}
	rec := tr.Trials[0][0]
	chip := dram.NewChip(cfg.Geom, ecc.NewCRC8ATM())
	n := ApplyToChip(tr.Trials[0], rec.Channel, rec.Rank, rec.Chip, chip)
	if n == 0 {
		t.Fatal("no faults applied")
	}
	if len(chip.Faults()) != n {
		t.Fatalf("chip holds %d faults, applied %d", len(chip.Faults()), n)
	}
	// The replayed bank fault must corrupt reads in its bank.
	bad := 0
	for col := 0; col < 16; col++ {
		a := dram.WordAddr{Bank: rec.Range.Bank, Row: 0, Col: col}
		if r := chip.Read(a); r.Status != ecc.StatusOK {
			bad++
		}
	}
	if bad < 12 {
		t.Fatalf("replayed fault corrupted only %d/16 words", bad)
	}
}

func TestTraceValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := CaptureTrace(cfg, 0, 1); err == nil {
		t.Error("expected error for zero trials")
	}
	bad := cfg
	bad.Channels = 0
	if _, err := CaptureTrace(bad, 1, 1); err == nil {
		t.Error("expected error for bad config")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("expected decode error")
	}
	tr, _ := CaptureTrace(cfg, 1, 1)
	if _, err := tr.Judge(nil); err == nil {
		t.Error("expected error for no schemes")
	}
}

// TestReadTraceRejectsOutOfFleetRecord: the judging engines index their
// tables by a record's channel, rank, chip and granularity unchecked, so
// ReadTrace refuses a trace holding any record outside its config's fleet
// and names the offending trial and record.
func TestReadTraceRejectsOutOfFleetRecord(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[string]func(*FaultRecord){
		"in fleet":         func(*FaultRecord) {},
		"channel":          func(r *FaultRecord) { r.Channel = cfg.Channels },
		"negative channel": func(r *FaultRecord) { r.Channel = -1 },
		"rank":             func(r *FaultRecord) { r.Rank = cfg.RanksPerChannel },
		"chip":             func(r *FaultRecord) { r.Chip = cfg.ChipsPerRank },
		"granularity":      func(r *FaultRecord) { r.Gran = dram.NumGranularities },
	}
	for name, mut := range cases {
		tr := &Trace{Config: cfg, Trials: make([][]FaultRecord, 5)}
		last := mkRec(cfg.Channels-1, cfg.RanksPerChannel-1, cfg.ChipsPerRank-1, dram.NumGranularities-1, false, 5, 10)
		mut(&last)
		tr.Trials[3] = []FaultRecord{mkRec(0, 0, 0, dram.GranWord, false, 1, 2), last}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadTrace(&buf)
		switch {
		case name == "in fleet" && err != nil:
			t.Fatalf("in-fleet trace refused: %v", err)
		case name != "in fleet" && err == nil:
			t.Fatalf("%s: out-of-fleet record accepted", name)
		case err != nil && !strings.Contains(err.Error(), "trial 3 record 1 "):
			t.Fatalf("%s: error %q does not name trial 3 record 1", name, err)
		}
	}
}

// TestTraceJudgeYearsMatchCampaign: Judge promises Run's Report shape, so a
// lifetime a hair past seven years gets the campaign's eight year buckets.
func TestTraceJudgeYearsMatchCampaign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 7*HoursPerYear + 1e-6
	tr, err := CaptureTrace(cfg, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	judged, err := tr.Judge(AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	ran, err := RunCampaign(context.Background(), cfg, AllSchemes(), CampaignOptions{Trials: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if judged.Years != ran.Years {
		t.Fatalf("Judge counts %d years, RunCampaign %d", judged.Years, ran.Years)
	}
	for _, r := range judged.Results {
		if len(r.FailuresByYear) != ran.Years {
			t.Fatalf("%s: %d year buckets, want %d", r.SchemeName, len(r.FailuresByYear), ran.Years)
		}
	}
}
