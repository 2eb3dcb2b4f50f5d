package jsonread

import (
	"encoding/json"
	"errors"
	"testing"
)

func TestText(t *testing.T) {
	for _, in := range []string{
		`""`, `"plain"`, `"a\nb"`, `"\"\\\/\b\f\r\t"`, `"a<b&c>"`,
		`"\u2028"`, `"\ud83d\ude00"`, "\"\xf0\x9f\x98\x80\"", `"\ud83d"`, `"\ud83dx"`, `"\ude00\ud83d"`,
		"\"caf\xc3\xa9\"", "\"bad \xff utf-8\"", "\"\xe2\x80\xa8\"",
	} {
		var want string
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%s: encoding/json refuses it: %v", in, err)
		}
		r := New([]byte(in))
		got := r.Text()
		r.End()
		if r.Err() != nil || string(got) != want {
			t.Errorf("Text(%s) = %q, %v; want %q", in, got, r.Err(), want)
		}
	}
	for _, in := range []string{``, `x`, `"open`, `"a\"`, `"\x"`, `"\u12"`, "\"tab\there\"", `"a\`} {
		r := New([]byte(in))
		r.Text()
		if !errors.Is(r.Err(), ErrForm) {
			t.Errorf("Text(%q) accepted", in)
		}
	}
}

func TestNumbers(t *testing.T) {
	for _, tc := range []struct {
		in string
		u  uint64
		ok bool
	}{
		{"0", 0, true}, {"7", 7, true}, {"18446744073709551615", 1<<64 - 1, true},
		{"18446744073709551616", 0, false}, {"01", 0, false}, {"", 0, false}, {"-1", 0, false},
	} {
		r := New([]byte(tc.in))
		got := r.Uint()
		r.End()
		if (r.Err() == nil) != tc.ok || got != tc.u {
			t.Errorf("Uint(%q) = %d, %v", tc.in, got, r.Err())
		}
	}
	for _, tc := range []struct {
		in string
		i  int64
		ok bool
	}{
		{"0", 0, true}, {"-0", 0, true}, {"-12", -12, true},
		{"9223372036854775807", 1<<63 - 1, true}, {"-9223372036854775808", -1 << 63, true},
		{"9223372036854775808", 0, false}, {"-9223372036854775809", 0, false}, {"-", 0, false}, {"--1", 0, false},
	} {
		r := New([]byte(tc.in))
		got := r.Int()
		r.End()
		if (r.Err() == nil) != tc.ok || got != tc.i {
			t.Errorf("Int(%q) = %d, %v", tc.in, got, r.Err())
		}
	}
	// A number in a form json.Marshal does not write stops the digit run;
	// the literal expected next then fails.
	r := New([]byte(`{"n":1.5}`))
	r.Expect(`{"n":`)
	r.Uint()
	r.Expect("}")
	if r.Err() == nil {
		t.Error("1.5 read as an integer")
	}
}

func TestObject(t *testing.T) {
	r := New([]byte(`{"on":true,"off":false,"m":{"a":1,"b":2},"e":{},"rest":[1]}`))
	r.Expect(`{"on":`)
	on := r.Bool()
	r.Expect(`,"off":`)
	off := r.Bool()
	r.Expect(`,"m":{`)
	sum := uint64(0)
	keys := ""
	for n := 0; r.More(n); n++ {
		keys += string(r.Key())
		sum += r.Uint()
	}
	r.Expect(`,"e":{`)
	empty := 0
	for n := 0; r.More(n); n++ {
		empty++
	}
	if r.Accept(`,"absent":`) {
		t.Error("Accept matched a field that is not there")
	}
	r.Expect(`,"rest":`)
	rest := string(r.Rest())
	r.End()
	if err := r.Err(); err != nil || !on || off || keys != "ab" || sum != 3 || empty != 0 || rest != "[1]}" {
		t.Fatalf("read on=%v off=%v keys=%q sum=%d empty=%d rest=%q err=%v", on, off, keys, sum, empty, rest, err)
	}
	for _, in := range []string{`{"a":1,}`, `{,"a":1}`, `{"a":1 }`, `{"a":1`, `{"a" :1}`} {
		r := New([]byte(in))
		r.Expect("{")
		for n := 0; r.More(n); n++ {
			r.Key()
			r.Uint()
		}
		r.End()
		if !errors.Is(r.Err(), ErrForm) {
			t.Errorf("%s accepted", in)
		}
	}
}

func TestErrorsAreSticky(t *testing.T) {
	r := New([]byte(`{"a":1}`))
	r.Expect(`{"b":`)
	first := r.Err()
	if first == nil || r.Uint() != 0 || r.Text() != nil || r.Bool() || r.More(0) || r.Rest() != nil {
		t.Fatal("a failed reader went on reading")
	}
	r.End()
	if r.Err() != first {
		t.Fatalf("error changed from %v to %v", first, r.Err())
	}
}

// FuzzText holds Text to encoding/json: every string token Text accepts
// decodes to the bytes json.Unmarshal gives, and every token
// json.Unmarshal accepts, Text accepts.
func FuzzText(f *testing.F) {
	for _, s := range []string{`"a"`, `"a\nb<"`, `"\ud83d\ude00"`, "\"\xff\"", `"\ud800A"`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(data)
		got := r.Text()
		r.End()
		var want string
		refErr := json.Unmarshal(data, &want)
		if r.Err() == nil && (refErr != nil || string(got) != want) {
			t.Fatalf("Text(%q) = %q; encoding/json: %q, %v", data, got, want, refErr)
		}
		if r.Err() != nil && refErr == nil && len(data) > 0 && data[0] == '"' && data[len(data)-1] == '"' {
			t.Fatalf("Text(%q) refused a string encoding/json decodes: %v", data, r.Err())
		}
	})
}
