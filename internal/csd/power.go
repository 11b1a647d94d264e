package csd

import "time"

// PowerModel captures the MAID energy characteristics that motivate cold
// storage devices (§2.2): only one disk group draws full power at a time,
// in-rack cooling and power are right-provisioned to that group, and
// group switches pay a spin-up surge.
type PowerModel struct {
	// IdleWatts is the rack's base draw (controllers, network, spun-down
	// disks).
	IdleWatts float64
	// GroupActiveWatts is the extra draw of one spun-up disk group.
	GroupActiveWatts float64
	// SwitchJoules is the spin-down + spin-up energy of a group switch.
	SwitchJoules float64
}

// Energy estimates the device's energy consumption over a run of the
// given makespan: base draw throughout, one active group whenever not
// mid-switch, plus the per-switch surge. The estimate assumes a group is
// loaded for the whole run (the emulator's first load is free).
func (pm PowerModel) Energy(st Stats, makespan time.Duration) float64 {
	var switching time.Duration
	for _, iv := range st.SwitchIntervals {
		switching += iv.To - iv.From
	}
	active := makespan - switching
	if active < 0 {
		active = 0
	}
	return pm.IdleWatts*makespan.Seconds() +
		pm.GroupActiveWatts*active.Seconds() +
		pm.SwitchJoules*float64(st.GroupSwitches)
}

// JBODEnergy estimates the same rack with every group spun up for the
// whole run — the always-on configuration a CSD replaces. Comparing it
// with Energy quantifies the MAID saving (Facebook reports cold storage
// cutting expenses by a third over conventional online storage, §7).
func (pm PowerModel) JBODEnergy(groups int, makespan time.Duration) float64 {
	return (pm.IdleWatts + pm.GroupActiveWatts*float64(groups)) * makespan.Seconds()
}

// Pelican returns a device configuration modeled on the paper's description
// of Microsoft Pelican (§2.2): 1,152 SMR disks, 8 % spun up, 8 s group
// switch, saturates a 10 GbE link.
func Pelican() Config {
	cfg := DefaultConfig()
	cfg.GroupSwitch = 8 * time.Second
	cfg.Bandwidth = 1e9
	return cfg
}

// PelicanPower is a representative power model for a Pelican-class rack:
// ~2 kW base, ~1.1 kW per active group of 96 drives, ~5 kJ surge per
// switch (spin-up of 96 drives for several seconds).
func PelicanPower() PowerModel {
	return PowerModel{IdleWatts: 2000, GroupActiveWatts: 1100, SwitchJoules: 5000}
}
