package main

import (
	"strings"
	"testing"
)

// Every qhpcd flag keeps one meaning at any -devices: a fleet of one
// honours the maintenance clock like a larger fleet, and a value the
// daemon would silently ignore (-workers 0, -devices 0, a negative clock
// setting) is refused instead.
func TestCheckFlags(t *testing.T) {
	for _, ok := range []struct {
		workers, devices   int
		maintDays, simRate float64
	}{
		{4, 1, 0, 0},
		{1, 4, 0, 0},
		{2, 4, 30, 0},
		{2, 4, 0, 2},
		{4, 1, 30, 0},
		{4, 1, 0, 1},
	} {
		if err := checkFlags(ok.workers, ok.devices, ok.maintDays, ok.simRate); err != nil {
			t.Errorf("checkFlags(%+v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []struct {
		workers, devices   int
		maintDays, simRate float64
		names              string
	}{
		{0, 1, 0, 0, "-workers"},
		{0, 4, 0, 0, "-workers"},
		{-1, 4, 0, 0, "-workers"},
		{4, 0, 0, 0, "-devices"},
		{4, 1, -30, 0, "-maintenance-days"},
		{4, 4, 0, -1, "-sim-rate"},
	} {
		err := checkFlags(bad.workers, bad.devices, bad.maintDays, bad.simRate)
		if err == nil {
			t.Errorf("checkFlags(%+v) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), bad.names) {
			t.Errorf("checkFlags(%+v) = %q, does not name %s", bad, err, bad.names)
		}
	}
}
