package main

import (
	"bytes"
	"strings"
	"testing"

	"sqm/internal/lint"
)

func TestListPrintsEveryCheck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d, stderr: %s", code, errb.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(out.String(), a.Name) || !strings.Contains(out.String(), a.Doc) {
			t.Errorf("-list output missing %q:\n%s", a.Name, out.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(lint.All()) {
		t.Errorf("-list printed %d lines, want %d", len(lines), len(lint.All()))
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "xml"}, &out, &errb); code != 2 {
		t.Fatalf("bad format exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown format") {
		t.Errorf("stderr missing format error: %s", errb.String())
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag exit code = %d, want 2", code)
	}
}

func TestMissingPackageIsLoadError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("missing package exit code = %d, want 2, stderr: %s", code, errb.String())
	}
}

func TestExplainPrintsTheInvariantCard(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", "dpbudget"}, &out, &errb); code != 0 {
		t.Fatalf("-explain exit code = %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, frag := range []string{
		"dpbudget —",
		"Invariant:",
		"Sources:",
		"Sinks:",
		"Sanitizers:",
		"Example finding:",
		"//lint:ignore dpbudget",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("-explain dpbudget output missing %q:\n%s", frag, got)
		}
	}
}

func TestExplainCoversEveryDataflowCheck(t *testing.T) {
	for _, a := range lint.All() {
		if a.RunModule == nil {
			continue
		}
		name := a.Name
		var out, errb bytes.Buffer
		if code := run([]string{"-explain", name}, &out, &errb); code != 0 {
			t.Fatalf("-explain %s exit code = %d, stderr: %s", name, code, errb.String())
		}
		if !strings.Contains(out.String(), "Invariant:") || !strings.Contains(out.String(), "Example finding:") {
			t.Errorf("-explain %s missing invariant or example:\n%s", name, out.String())
		}
	}
}

func TestExplainUnknownCheckIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", "nosuchcheck"}, &out, &errb); code != 2 {
		t.Fatalf("-explain nosuchcheck exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown check") {
		t.Errorf("stderr missing unknown-check error: %s", errb.String())
	}
}
