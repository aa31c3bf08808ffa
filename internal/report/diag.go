package report

import (
	"errors"
	"fmt"
	"strings"

	"vlt/internal/guard"
	"vlt/internal/runner"
	"vlt/internal/vet"
	"vlt/internal/vm"
)

// Diagnose renders a simulation failure as a clean, one-paragraph
// diagnostic for the command-line tools: typed guard errors (stalls,
// invariant violations, recovered panics, guest faults) get a headline
// plus their machine-state dump; anything else renders as-is. tool
// prefixes the headline.
func Diagnose(tool string, err error) string {
	var sb strings.Builder
	headline := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	}
	dump := func(d string) {
		if d == "" {
			return
		}
		sb.WriteString("\nmachine state at failure:\n")
		sb.WriteString(indent(d, "  "))
	}

	var stall *guard.StallError
	var inv *guard.InvariantError
	var pan *runner.PanicError
	var fault *vm.FaultError
	var vetErr *vet.Error
	switch {
	case errors.As(err, &vetErr):
		headline("program %q failed static verification (%d finding(s))", vetErr.Program, len(vetErr.Findings))
		sb.WriteString("\nthe verifier proves each program sets VL before vector ops, reads only\n")
		sb.WriteString("defined registers, and stays inside its data image; see DESIGN.md §9.\n\n")
		for _, f := range vetErr.Findings {
			sb.WriteString(indent(f.String(), "  "))
		}
	case errors.As(err, &stall):
		headline("simulation aborted: %v", stall)
		dump(stall.Dump)
	case errors.As(err, &inv):
		headline("self-check failed: %v", inv)
		sb.WriteString("\nthis is a simulator bug, not a property of the workload;\n")
		sb.WriteString("re-run with the auditor off (VLT_AUDIT=off) to work around it.\n")
		dump(inv.Dump)
	case errors.As(err, &pan):
		headline("internal panic in %s: %v", pan.Key, pan.Value)
		sb.WriteString("\nstack at panic:\n")
		sb.WriteString(indent(strings.TrimRight(string(pan.Stack), "\n"), "  "))
		sb.WriteByte('\n')
	case errors.As(err, &fault):
		headline("guest program fault: %v", err)
	default:
		headline("%v", err)
	}
	return sb.String()
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return ""
	}
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix) + "\n"
}
