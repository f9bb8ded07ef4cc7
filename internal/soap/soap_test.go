package soap

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"repro/internal/metrics"
	"repro/internal/vtime"
	"repro/internal/wsdl"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := &Message{
		Namespace: "urn:test",
		Operation: "execute",
		Params: []Param{
			{Name: "a", Value: "1"},
			{Name: "b", Value: "two & <three>"},
			{Name: "a", Value: "repeated"},
		},
		Headers: map[string]string{"Token": "abc=="},
	}
	env, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Namespace != "urn:test" || got.Operation != "execute" {
		t.Fatalf("identity: %+v", got)
	}
	if len(got.Params) != 3 || got.Params[1].Value != "two & <three>" {
		t.Fatalf("params: %+v", got.Params)
	}
	if got.Headers["Token"] != "abc==" {
		t.Fatalf("headers: %+v", got.Headers)
	}
	if v, ok := got.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if got.ParamMap()["a"] != "repeated" {
		t.Fatal("ParamMap should keep last value")
	}
}

func TestDecodeFault(t *testing.T) {
	f := &Fault{Code: FaultServer, String: "boom", Detail: "stack"}
	env := EncodeFault(f)
	_, err := Decode(env)
	var got *Fault
	if !errors.As(err, &got) {
		t.Fatalf("err %v", err)
	}
	if got.Code != FaultServer || got.String != "boom" || got.Detail != "stack" {
		t.Fatalf("fault %+v", got)
	}
	if !strings.Contains(got.Error(), "boom") {
		t.Fatalf("fault error text %q", got.Error())
	}
}

func TestDecodeRejectsNonSOAP(t *testing.T) {
	if _, err := Decode([]byte("<html></html>")); !errors.Is(err, ErrNotSOAP) {
		t.Fatalf("got %v", err)
	}
	empty := `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body></soapenv:Body></soapenv:Envelope>`
	if _, err := Decode([]byte(empty)); !errors.Is(err, ErrNoOperation) {
		t.Fatalf("got %v", err)
	}
}

func calcService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(wsdl.ServiceDef{
		Name:      "Calc",
		Namespace: "urn:calc",
		Operations: []wsdl.OperationDef{
			{Name: "add", Params: []wsdl.ParamDef{
				{Name: "x", Type: wsdl.TypeInt}, {Name: "y", Type: wsdl.TypeInt},
			}},
			{Name: "echoHeader"},
			{Name: "explode"},
			{Name: "unbound"},
		},
	})
	svc.MustBind("add", func(req *Request) (string, error) {
		x, _ := strconv.Atoi(req.Args["x"])
		y, _ := strconv.Atoi(req.Args["y"])
		return strconv.Itoa(x + y), nil
	})
	svc.MustBind("echoHeader", func(req *Request) (string, error) {
		return req.Msg.Headers["Token"], nil
	})
	svc.MustBind("explode", func(req *Request) (string, error) {
		return "", &Fault{Code: FaultServer, String: "deliberate"}
	})
	return svc
}

func newContainer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(nil, metrics.Cost{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestServerInvoke(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	got, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "add",
		[]Param{{Name: "x", Value: "19"}, {Name: "y", Value: "23"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "42" {
		t.Fatalf("add = %q", got)
	}
}

func TestServerHeadersReachHandler(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	got, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "echoHeader", nil,
		map[string]string{"Token": "tok123"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "tok123" {
		t.Fatalf("header echo %q", got)
	}
}

func TestServerFaults(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	cases := []struct {
		op     string
		params []Param
		want   string
	}{
		{"explode", nil, "deliberate"},
		{"add", []Param{{Name: "x", Value: "1"}}, "missing parameter"},
		{"add", []Param{{Name: "x", Value: "1"}, {Name: "y", Value: "nan"}}, "not an int"},
		{"nosuch", nil, "no operation"},
		{"unbound", nil, "without handler"},
	}
	for _, tc := range cases {
		_, err := c.Call(hs.URL+"/services/Calc", "urn:calc", tc.op, tc.params, nil)
		var f *Fault
		if !errors.As(err, &f) {
			t.Errorf("%s: err %v, want fault", tc.op, err)
			continue
		}
		if !strings.Contains(f.String, tc.want) {
			t.Errorf("%s: fault %q, want substring %q", tc.op, f.String, tc.want)
		}
	}
}

func TestServerNoSuchService(t *testing.T) {
	_, hs := newContainer(t)
	var c Client
	_, err := c.Call(hs.URL+"/services/Ghost", "urn:g", "x", nil, nil)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "no such service") {
		t.Fatalf("err %v", err)
	}
}

func TestServerWSDLEndpoint(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	var c Client
	doc, err := c.FetchWSDL(hs.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	def, err := wsdl.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "Calc" || def.Operation("add") == nil {
		t.Fatalf("wsdl def %+v", def)
	}
}

func TestServerIndexAndInfoPages(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	resp, err := http.Get(hs.URL + "/services/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "Calc") {
		t.Fatalf("index %q", buf[:n])
	}
	resp2, err := http.Get(hs.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("info page status %d", resp2.StatusCode)
	}
}

func TestDeployUndeployLifecycle(t *testing.T) {
	srv, hs := newContainer(t)
	svc := calcService(t)
	if err := srv.Deploy(svc); err != nil {
		t.Fatal(err)
	}
	if names := srv.Names(); len(names) != 1 || names[0] != "Calc" {
		t.Fatalf("names %v", names)
	}
	if !srv.Undeploy("Calc") {
		t.Fatal("undeploy reported missing")
	}
	if srv.Undeploy("Calc") {
		t.Fatal("second undeploy reported success")
	}
	var c Client
	if _, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "add", nil, nil); err == nil {
		t.Fatal("undeployed service still answers")
	}
}

func TestDeployRejectsInvalidDef(t *testing.T) {
	srv, _ := newContainer(t)
	err := srv.Deploy(NewService(wsdl.ServiceDef{Name: "", Namespace: ""}))
	if err == nil {
		t.Fatal("invalid service deployed")
	}
}

func TestBindUnknownOperation(t *testing.T) {
	svc := NewService(wsdl.ServiceDef{Name: "S", Namespace: "urn:s"})
	if err := svc.Bind("ghost", nil); err == nil {
		t.Fatal("bound to missing operation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBind should panic")
		}
	}()
	svc.MustBind("ghost", nil)
}

func TestMethodNotAllowed(t *testing.T) {
	srv, hs := newContainer(t)
	srv.Deploy(calcService(t))
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/services/Calc", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServerAccountsRequestHandlingCost(t *testing.T) {
	clk := vtime.NewScaled(10000)
	rec := metrics.NewRecorder(clk, 3*time.Second)
	srv := NewServer(metrics.NewProbe(rec), metrics.Cost{RequestHandling: 500 * time.Millisecond})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	srv.Deploy(calcService(t))
	var c Client
	if _, err := c.Call(hs.URL+"/services/Calc", "urn:calc", "add",
		[]Param{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(rec.Total(metrics.CPU)); got < 400*time.Millisecond {
		t.Fatalf("request handling cost not accounted: %v", got)
	}
}

// xmlChar is the test's own statement of XML 1.0's Char production.
func xmlChar(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		(0x20 <= r && r <= 0xD7FF) || (0xE000 <= r && r <= 0xFFFD) || (0x10000 <= r && r <= 0x10FFFF)
}

// xmlCarriable reports whether s can ride in XML character data.
func xmlCarriable(s string) bool {
	return utf8.ValidString(s) && strings.IndexFunc(s, func(r rune) bool { return !xmlChar(r) }) < 0
}

// checkEncode asserts the Encode contract for one message: it fails
// exactly when some header or param value holds a character XML cannot
// carry, naming that element, and otherwise Decode gives every value
// back exactly.
func checkEncode(msg *Message) error {
	carriable := true
	for _, v := range msg.Headers {
		carriable = carriable && xmlCarriable(v)
	}
	for _, p := range msg.Params {
		carriable = carriable && xmlCarriable(p.Value)
	}
	env, err := Encode(msg)
	if !carriable {
		if !errors.Is(err, ErrBadChar) {
			return fmt.Errorf("non-XML value encoded: err=%v", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("XML-legal values rejected: %v", err)
	}
	got, err := Decode(env)
	if err != nil {
		return err
	}
	if len(got.Params) != len(msg.Params) || len(got.Headers) != len(msg.Headers) {
		return fmt.Errorf("decoded %d params, %d headers; want %d, %d", len(got.Params), len(got.Headers), len(msg.Params), len(msg.Headers))
	}
	for i := range msg.Params {
		// xml.EscapeText writes \t, \r and \n as character references,
		// so values round-trip exactly.
		if got.Params[i].Value != msg.Params[i].Value {
			return fmt.Errorf("param %d: got %q want %q", i, got.Params[i].Value, msg.Params[i].Value)
		}
	}
	for k, v := range msg.Headers {
		if got.Headers[k] != v {
			return fmt.Errorf("header %s: got %q want %q", k, got.Headers[k], v)
		}
	}
	return nil
}

// Property: Encode either refuses a value XML cannot carry or
// round-trips every value exactly — arbitrary strings, unfiltered.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(vals []string, header string) bool {
		msg := &Message{Namespace: "urn:p", Operation: "op", Headers: map[string]string{"H": header}}
		for i, v := range vals {
			msg.Params = append(msg.Params, Param{Name: fmt.Sprintf("p%d", i), Value: v})
		}
		if err := checkEncode(msg); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsNonXMLCharacters(t *testing.T) {
	cases := []struct {
		name, value string
		ok          bool
	}{
		{"U+FFFE", "a\uFFFEb", false},
		{"U+FFFF", "\uFFFF", false},
		{"NUL", "x\x00y", false},
		{"escape", "\x1b[0m", false},
		{"invalid UTF-8", "\xff\xfe", false},
		{"lone surrogate bytes", "\xed\xa0\x80", false},
		{"tab CR LF", "a\tb\r\nc\r", true},
		{"U+FFFD itself", "\uFFFD", true},
		{"astral", "\U0001F600\U0010FFFF", true},
		{"metacharacters", `<a href="x">&amp;</a>`, true},
	}
	for _, c := range cases {
		for _, where := range []string{"param", "header"} {
			msg := &Message{Namespace: "urn:p", Operation: "op"}
			if where == "param" {
				msg.Params = []Param{{Name: "ok", Value: "fine"}, {Name: "v", Value: c.value}}
			} else {
				msg.Headers = map[string]string{"Token": c.value}
			}
			if err := checkEncode(msg); err != nil {
				t.Fatalf("%s in %s: %v", c.name, where, err)
			}
			_, err := Encode(msg)
			if c.ok != (err == nil) {
				t.Fatalf("%s in %s: err=%v, want ok=%v", c.name, where, err, c.ok)
			}
			if err != nil {
				want := map[string]string{"param": `param "v"`, "header": `header "Token"`}[where]
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: error %q does not name %s", c.name, err, want)
				}
			}
		}
	}
	// EncodeFault never fails: it still replaces.
	if env := EncodeFault(&Fault{Code: FaultServer, String: "bad\x00byte"}); !strings.Contains(string(env), "bad\uFFFDbyte") {
		t.Fatalf("fault envelope %q", env)
	}
}

// A handler result XML cannot carry becomes the container's Server
// fault, never a silently altered response.
func TestServerFaultsOnNonXMLResult(t *testing.T) {
	srv, hs := newContainer(t)
	svc := NewService(wsdl.ServiceDef{Name: "Raw", Namespace: "urn:raw", Operations: []wsdl.OperationDef{{Name: "dump"}}})
	svc.MustBind("dump", func(*Request) (string, error) { return "binary\x00output", nil })
	if err := srv.Deploy(svc); err != nil {
		t.Fatal(err)
	}
	var c Client
	_, err := c.Call(hs.URL+"/services/Raw", "urn:raw", "dump", nil, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultServer || !strings.Contains(f.String, `param "return"`) {
		t.Fatalf("got %v", err)
	}
}
