package csd

import (
	"testing"
	"time"
)

func TestEnergyAccounting(t *testing.T) {
	pm := PowerModel{IdleWatts: 100, GroupActiveWatts: 50, SwitchJoules: 1000}
	st := Stats{
		GroupSwitches: 2,
		SwitchIntervals: []Interval{
			{From: 10 * time.Second, To: 20 * time.Second},
			{From: 40 * time.Second, To: 50 * time.Second},
		},
	}
	// 100 s makespan: idle 100*100 + active 50*(100-20) + 2*1000 = 16000.
	got := pm.Energy(st, 100*time.Second)
	if got != 16000 {
		t.Fatalf("energy %v, want 16000", got)
	}
}

func TestEnergyZeroMakespan(t *testing.T) {
	pm := PelicanPower()
	if e := pm.Energy(Stats{}, 0); e != 0 {
		t.Fatalf("zero makespan energy %v", e)
	}
}

func TestJBODComparison(t *testing.T) {
	pm := PowerModel{IdleWatts: 100, GroupActiveWatts: 50}
	st := Stats{}
	csd := pm.Energy(st, time.Hour)
	jbod := pm.JBODEnergy(12, time.Hour)
	if jbod <= csd {
		t.Fatalf("JBOD (%v) should dominate MAID (%v)", jbod, csd)
	}
	// 12 groups always-on draws 100+600 W vs MAID's 150 W.
	if ratio := jbod / csd; ratio < 4 || ratio > 5 {
		t.Fatalf("saving ratio %.2f out of expected band", ratio)
	}
}

func TestPresetsSane(t *testing.T) {
	cfg := Pelican()
	if cfg.GroupSwitch != 8*time.Second || cfg.Bandwidth != 1e9 || cfg.Scheduler == nil {
		t.Fatalf("bad Pelican preset %+v", cfg)
	}
}
