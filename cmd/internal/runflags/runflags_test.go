package runflags

import (
	"flag"
	"strings"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/system"
)

func TestMachine(t *testing.T) {
	for name, want := range map[string]string{
		"xeon":     system.XeonQuad().Name,
		"itanium2": system.Itanium2Quad().Name,
	} {
		mc, err := Machine(name)
		if err != nil || mc.Name != want {
			t.Errorf("Machine(%q) = %q, %v; want %q", name, mc.Name, err, want)
		}
	}
	for _, name := range []string{"", "Xeon", "alpha"} {
		if _, err := Machine(name); err == nil || !strings.Contains(err.Error(), "-machine") {
			t.Errorf("Machine(%q) error = %v, want one naming -machine", name, err)
		}
	}
}

func TestCampaignResumeNeedsCheckpoint(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCampaign(fs)
	if err := fs.Parse([]string{"-resume", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(campaign.Spec{Warehouses: []int{10}, Processors: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Fatalf("Run error = %v, want -resume requires -checkpoint", err)
	}
}
