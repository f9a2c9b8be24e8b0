package faults

import (
	"errors"
	"testing"
)

func TestDisarmedIsInert(t *testing.T) {
	Disarm()
	if Should("anything") {
		t.Fatal("disarmed Should fired")
	}
	if err := Fail("anything"); err != nil {
		t.Fatalf("disarmed Fail returned %v", err)
	}
	if Counts() != nil {
		t.Fatal("disarmed Counts not nil")
	}
}

func TestSpecParsing(t *testing.T) {
	defer Disarm()
	for _, bad := range []string{
		"nope", "x=", "=p:0.5", "x=p:1.5", "x=p:-1", "x=n:0", "x=every:0", "x=q:3", ";;",
	} {
		if err := Arm(bad, 1); err == nil {
			t.Errorf("Arm(%q) accepted", bad)
		}
	}
	if err := Arm("a=p:0.5; b=n:3, c=every:2;d=always", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if Counts() == nil {
		t.Fatal("not armed after Arm")
	}
}

func TestNthCallTrigger(t *testing.T) {
	defer Disarm()
	if err := Arm("x=n:3", 1); err != nil {
		t.Fatal(err)
	}
	got := []bool{Should("x"), Should("x"), Should("x"), Should("x")}
	want := []bool{false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	if Counts()["x"] != 1 {
		t.Fatalf("fired count = %d, want 1", Counts()["x"])
	}
}

func TestEveryAndAlwaysTriggers(t *testing.T) {
	defer Disarm()
	if err := Arm("e=every:2;a=always", 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if got, want := Should("e"), i%2 == 0; got != want {
			t.Fatalf("every:2 call %d fired=%v", i, got)
		}
		if !Should("a") {
			t.Fatalf("always did not fire on call %d", i)
		}
	}
}

// TestProbabilityDeterminism pins the contract chaos tests rely on: the
// same (spec, seed) pair replays the same fault schedule.
func TestProbabilityDeterminism(t *testing.T) {
	defer Disarm()
	run := func(seed int64) []bool {
		if err := Arm("p=p:0.3", seed); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = Should("p")
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d with equal seeds", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-call schedules")
	}
}

func TestFailErrorIdentity(t *testing.T) {
	defer Disarm()
	if err := Arm("x=always", 1); err != nil {
		t.Fatal(err)
	}
	err := Fail("x")
	if err == nil {
		t.Fatal("Fail did not fire under always")
	}
	if !errors.Is(err, Injected) {
		t.Fatalf("injected error %v is not faults.Injected", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "x" {
		t.Fatalf("injected error %v does not carry the point name", err)
	}
}

func TestUnknownPointNeverFires(t *testing.T) {
	defer Disarm()
	if err := Arm("x=always", 1); err != nil {
		t.Fatal(err)
	}
	if Should("y") {
		t.Fatal("unarmed point fired")
	}
}
