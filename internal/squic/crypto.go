// Package squic implements a QUIC-like secure reliable stream transport over
// SCION datagrams: an X25519+ed25519 1-RTT handshake, AES-GCM packet
// protection, multiplexed flow-controlled streams, ACK-based loss recovery,
// and a slow-start congestion controller.
//
// The paper exclusively uses QUIC as the transport for web traffic over
// SCION, mapping each HTTP/1 connection onto "a single bidirectional QUIC
// stream" (§5.1); squic provides that transport with the same architecture
// (user-space, over UDP-style datagrams, no OS support) built from scratch
// on the Go standard library.
package squic

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// sessionKeys holds the directional AEADs derived from the handshake.
type sessionKeys struct {
	clientSeal cipher.AEAD // protects client->server packets
	serverSeal cipher.AEAD // protects server->client packets
}

// hkdfExtract and hkdfExpand implement RFC 5869 with HMAC-SHA256.
func hkdfExtract(salt, ikm []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

func hkdfExpand(prk []byte, info string, n int) []byte {
	var out []byte
	var prev []byte
	for counter := byte(1); len(out) < n; counter++ {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write([]byte(info))
		m.Write([]byte{counter})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}

// deriveKeys computes the two directional AEADs from the ECDH shared secret
// and the handshake transcript.
func deriveKeys(shared, transcript []byte) (*sessionKeys, error) {
	prk := hkdfExtract([]byte("squic salt v1"), append(append([]byte{}, shared...), transcript...))
	mk := func(info string) (cipher.AEAD, error) {
		block, err := aes.NewCipher(hkdfExpand(prk, info, 16))
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	cs, err := mk("client key")
	if err != nil {
		return nil, err
	}
	ss, err := mk("server key")
	if err != nil {
		return nil, err
	}
	return &sessionKeys{clientSeal: cs, serverSeal: ss}, nil
}

// nonceBuf is the 12-byte AEAD nonce of one packet: four zero bytes, then
// the big-endian packet number.
type nonceBuf [12]byte

// set fills n for packet number pn and returns it as a slice. A connection
// keeps one nonce and refills it under its lock for every seal and open, so
// no nonce is allocated per packet.
func (n *nonceBuf) set(pn uint64) []byte {
	binary.BigEndian.PutUint64(n[4:], pn)
	return n[:]
}

// Identity is a server's transport identity: a name (the "hostname") and an
// ed25519 key pair. It stands in for the WebPKI certificate of a real
// deployment.
type Identity struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewIdentity generates a fresh identity for name.
func NewIdentity(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("squic: generating identity for %q: %w", name, err)
	}
	return &Identity{Name: name, priv: priv, pub: pub}, nil
}

// Public returns the identity's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// sign produces the handshake signature over the transcript.
func (id *Identity) sign(transcript []byte) []byte {
	return ed25519.Sign(id.priv, transcript)
}

// CertPool maps server names to trusted public keys — the client-side trust
// anchor (mirroring a browser's certificate store). It is safe for
// concurrent use.
type CertPool struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewCertPool returns an empty pool.
func NewCertPool() *CertPool {
	return &CertPool{keys: make(map[string]ed25519.PublicKey)}
}

// Add trusts pub for the given server name.
func (p *CertPool) Add(name string, pub ed25519.PublicKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keys[name] = append(ed25519.PublicKey(nil), pub...)
}

// AddIdentity trusts the identity's public key under its name.
func (p *CertPool) AddIdentity(id *Identity) { p.Add(id.Name, id.pub) }

// ErrUnknownServer is returned when dialing a server whose key is not in the
// pool.
var ErrUnknownServer = errors.New("squic: no trusted key for server")

// verify checks the handshake signature for the named server.
func (p *CertPool) verify(name string, transcript, sig []byte) error {
	p.mu.RLock()
	pub, ok := p.keys[name]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownServer, name)
	}
	if !ed25519.Verify(pub, transcript, sig) {
		return fmt.Errorf("squic: handshake signature for %q invalid", name)
	}
	return nil
}

// transcript binds the handshake messages: both ephemeral public keys, the
// connection ID, and the server name.
func handshakeTranscript(connID uint64, clientPub, serverPub []byte, serverName string) []byte {
	h := sha256.New()
	h.Write([]byte("squic-hs-v1"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], connID)
	h.Write(b[:])
	h.Write(clientPub)
	h.Write(serverPub)
	h.Write([]byte(serverName))
	return h.Sum(nil)
}

// newEphemeral generates an X25519 key pair.
func newEphemeral() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}
