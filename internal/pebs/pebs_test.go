package pebs_test

import (
	"testing"

	"repro/internal/tracker"
)

// TestConfigValidate checks the PEBS sampler's configuration, which
// lives in tracker.Config beside the scanning kinds: the default is
// valid, and a zero sampling period or an empty ring is rejected by
// both Validate and New.
func TestConfigValidate(t *testing.T) {
	good := tracker.DefaultConfig()
	if good.Kind != tracker.KindPEBS {
		t.Fatalf("default kind = %q, want %q", good.Kind, tracker.KindPEBS)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []tracker.Config{good, good}
	bad[0].Period = 0
	bad[1].BufferSize = 0
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
		if _, err := tracker.New(c, 64, nil); err == nil {
			t.Errorf("New(%+v) should fail", c)
		}
	}
}
