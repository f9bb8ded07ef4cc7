package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/wsclient"
)

// portalClient drives a portal's HTTP surface — one appliance's, or a
// fleet gateway's, which serves the same routes — through one client.
type portalClient struct {
	base string
	hc   *http.Client
}

// portal reaches the rig's appliance over the shaped user LAN.
func (r *rig) portal() portalClient { return portalClient{r.app.BaseURL, r.userHTTP} }

// do sends req, stamping the tenant key when one is given, and returns
// the status and (bounded) body.
func (p portalClient) do(req *http.Request, key string) (int, []byte, error) {
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, nil
}

// upload posts the multipart upload form, as the paper's browser dialog
// does, declaring one string parameter per paramNames entry.
func (p portalClient) upload(key, fileName, program string, paramNames ...string) error {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", fileName)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(fw, program); err != nil {
		return err
	}
	mw.WriteField("user", "alice")
	mw.WriteField("description", "experiment upload")
	for i, name := range paramNames {
		mw.WriteField(fmt.Sprintf("paramName%d", i+1), name)
		mw.WriteField(fmt.Sprintf("paramType%d", i+1), "string")
	}
	mw.Close()
	req, err := http.NewRequest(http.MethodPost, p.base+"/upload", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	status, body, err := p.do(req, key)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("experiments: upload %s failed (%d): %s", fileName, status, body)
	}
	return nil
}

// invoke starts one invocation through the JSON API. A non-200 reply is
// returned as its status with a nil error, so callers can count 429
// sheds without treating them as failures.
func (p portalClient) invoke(key, service string, args map[string]string) (ticket string, status int, err error) {
	payload, _ := json.Marshal(map[string]any{"service": service, "args": args})
	req, err := http.NewRequest(http.MethodPost, p.base+"/api/invoke", bytes.NewReader(payload))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, err := p.do(req, key)
	if err != nil || status != http.StatusOK {
		return "", status, err
	}
	var inv struct {
		Ticket string `json:"ticket"`
	}
	if err := json.Unmarshal(body, &inv); err != nil || inv.Ticket == "" {
		return "", status, fmt.Errorf("invoke reply %q: %v", body, err)
	}
	return inv.Ticket, status, nil
}

// wait blocks until the invocation is terminal and returns its state.
func (p portalClient) wait(ticket string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, p.base+"/api/wait?ticket="+ticket, nil)
	if err != nil {
		return "", err
	}
	status, body, err := p.do(req, "")
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("wait: status %d: %s", status, body)
	}
	var done struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &done); err != nil {
		return "", err
	}
	return done.State, nil
}

// importService fetches a generated service's WSDL and builds its
// wsimport-style proxy.
func (r *rig) importService(service string) (*wsclient.Proxy, error) {
	return wsclient.ImportURL(r.app.BaseURL+"/services/"+service, r.userHTTP)
}

// publish uploads program as fileName and imports the generated service.
func (r *rig) publish(fileName, program string, paramNames ...string) (*wsclient.Proxy, error) {
	if err := r.portal().upload("", fileName, program, paramNames...); err != nil {
		return nil, err
	}
	service, err := core.ServiceNameFor(fileName)
	if err != nil {
		return nil, err
	}
	return r.importService(service)
}

// invokeGenerated imports the generated service's WSDL, then executes it
// and waits for the final output. The import is part of the request, so
// studies that measure it call this inside their window.
func (r *rig) invokeGenerated(service string, args map[string]string) (ticket, out string, err error) {
	proxy, err := r.importService(service)
	if err != nil {
		return "", "", err
	}
	return invokeWait(proxy, args)
}

// invokeWait executes the service and waits for its final output.
func invokeWait(proxy *wsclient.Proxy, args map[string]string) (ticket, out string, err error) {
	ticket, err = proxy.Invoke("execute", args)
	if err != nil {
		return "", "", err
	}
	out, err = proxy.Invoke("wait", map[string]string{"ticket": ticket})
	return ticket, out, err
}
