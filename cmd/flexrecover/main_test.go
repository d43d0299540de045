package main

import (
	"strings"
	"testing"

	"flexftl/internal/crash"
)

// TestCampaignAllSchemes runs a small campaign over every campaignable
// scheme and expects zero violations.
func TestCampaignAllSchemes(t *testing.T) {
	var sb strings.Builder
	failed, err := run(&sb, "all", crash.Config{Trials: 8, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("campaign reported violations:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"flexFTL (blockParity)", "pageFTL (none)", "recovery cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

// TestSabotagedCampaignFails proves the harness exits nonzero when recovery
// is deliberately broken.
func TestSabotagedCampaignFails(t *testing.T) {
	var sb strings.Builder
	failed, err := run(&sb, "flexFTL", crash.Config{
		Trials: 25, Seed: 1234, Workers: 4, Sabotage: crash.SabotageSkipRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("sabotaged campaign passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "reproduce: flexrecover -ftl flexFTL") {
		t.Errorf("missing reproducer line:\n%s", sb.String())
	}
}

func TestResolveSchemes(t *testing.T) {
	if _, err := resolveSchemes("no-such"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := resolveSchemes("nflexTLC"); err == nil {
		t.Error("non-campaignable scheme accepted")
	}
	names, err := resolveSchemes(" flexFTL , pageFTL ")
	if err != nil || len(names) != 2 {
		t.Fatalf("resolveSchemes = %v, %v", names, err)
	}
	all, err := resolveSchemes("all")
	if err != nil || len(all) < 5 {
		t.Fatalf("resolveSchemes(all) = %v, %v", all, err)
	}
	for _, n := range all {
		if n == "nflexTLC" {
			t.Error("\"all\" included the TLC scheme")
		}
	}
}

func TestListSchemes(t *testing.T) {
	var sb strings.Builder
	listSchemes(&sb)
	out := sb.String()
	for _, want := range []string{"flexFTL", "backup=blockParity", "nflexTLC", "not campaignable"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q\n%s", want, out)
		}
	}
}
