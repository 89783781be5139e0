package mp

import (
	"strings"
	"testing"

	"repro/internal/proxy"
	"repro/internal/sqldb"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustExec(t *testing.T, m *Manager, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := m.Execute(sql, params...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

// setupPhpBB builds the paper's Figure 4 schema: private messages readable
// only by sender and recipient.
func setupPhpBB(t *testing.T) *Manager {
	t.Helper()
	m := newManager(t)
	script := []string{
		"PRINCTYPE physical_user EXTERNAL",
		"PRINCTYPE user, msg",
		`CREATE TABLE privmsgs (
			msgid INT,
			subject VARCHAR(255) ENC FOR (msgid msg),
			msgtext TEXT ENC FOR (msgid msg)
		)`,
		`CREATE TABLE privmsgs_to (
			msgid INT, rcpt_id INT, sender_id INT,
			(sender_id user) SPEAKS FOR (msgid msg),
			(rcpt_id user) SPEAKS FOR (msgid msg)
		)`,
		`CREATE TABLE users (
			userid INT, username VARCHAR(255),
			(username physical_user) SPEAKS FOR (userid user)
		)`,
	}
	for _, q := range script {
		mustExec(t, m, q)
	}
	return m
}

func TestFigure4PrivateMessages(t *testing.T) {
	m := setupPhpBB(t)

	// Alice (user 1) and Bob (user 2) register and log in.
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Bob', 'bobpw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (2, 'Bob')")

	// Bob sends message 5 to Alice.
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 2)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 'hello', 'secret message body')")

	// Both logged in: message readable.
	res := mustExec(t, m, "SELECT msgtext FROM privmsgs WHERE msgid = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "secret message body" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Bob logs out; Alice still reads it (her chain: Alice -> user 1 -> msg 5).
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Bob'")
	res = mustExec(t, m, "SELECT subject FROM privmsgs WHERE msgid = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "hello" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Everyone logs out: the adversary (holding all server state and the
	// proxy) cannot decrypt message 5.
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")
	if _, err := m.Execute("SELECT msgtext FROM privmsgs WHERE msgid = 5"); err == nil {
		t.Fatal("message decryptable with no user logged in")
	}
}

func TestOfflineRecipientPublicKeyPath(t *testing.T) {
	m := setupPhpBB(t)

	// Alice registers, then logs out. Her principal exists but her key
	// is locked away.
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")

	// Bob sends Alice a message while she is offline: msg 5's key is
	// wrapped under user 1's *public* key (§4.2).
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Bob', 'bobpw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (2, 'Bob')")
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 2)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 's', 'for alice eyes')")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Bob'")

	// The user 1 -> msg 5 edge is a sealed box: the ephemeral public key
	// in front of a wrapSym blob of msg 5's key.
	symBlob, err := wrapSym(make([]byte, symKeySize), make([]byte, symKeySize))
	if err != nil {
		t.Fatal(err)
	}
	asym, wrapped := aliceMsg5Edge(t, m)
	if asym != 1 || len(wrapped) != len(symBlob)+x25519Size {
		t.Fatalf("offline edge: asym = %d, %d bytes; want 1, %d", asym, len(wrapped), len(symBlob)+x25519Size)
	}

	// Alice logs back in and reads it via her X25519 private key.
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	res := mustExec(t, m, "SELECT msgtext FROM privmsgs WHERE msgid = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "for alice eyes" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The first unwrap re-wrapped the edge under her symmetric key.
	if asym, wrapped := aliceMsg5Edge(t, m); asym != 0 || len(wrapped) != len(symBlob) {
		t.Fatalf("after login: asym = %d, %d bytes; want 0, %d", asym, len(wrapped), len(symBlob))
	}
}

// aliceMsg5Edge reads the stored user 1 -> msg 5 access key.
func aliceMsg5Edge(t *testing.T, m *Manager) (asym int64, wrapped []byte) {
	t.Helper()
	res, err := m.db.ExecSQL("SELECT asym, wrapped FROM cryptdb_access_keys WHERE grantee_type = 'user' AND grantee = '1' AND target_type = 'msg' AND target = '5'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("user 1 -> msg 5 edges: %v", res.Rows)
	}
	return res.Rows[0][0].I, res.Rows[0][1].B
}

func TestWrongPassword(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")
	if _, err := m.Execute("INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'WRONG')"); err == nil {
		t.Fatal("wrong password accepted")
	}
}

func TestRevocation(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Bob', 'bobpw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (2, 'Bob')")
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 2)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 's', 'body')")

	// Remove Bob's speaks-for row: Bob loses access to msg 5.
	mustExec(t, m, "DELETE FROM privmsgs_to WHERE msgid = 5")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")
	// Only Bob logged in now, and his edge is revoked.
	if _, err := m.Execute("SELECT msgtext FROM privmsgs WHERE msgid = 5"); err == nil {
		t.Fatal("revoked principal can still decrypt")
	}
}

// TestHotCRPConflictPolicy reproduces Figure 6: PC members see reviews only
// for papers they are not conflicted with, enforced cryptographically.
func TestHotCRPConflictPolicy(t *testing.T) {
	m := newManager(t)
	// NoConflict(paperId, contactId): no row in PaperConflict.
	m.RegisterPredicate("NoConflict", func(args []sqldb.Value) (bool, error) {
		res, err := m.Execute("SELECT COUNT(*) FROM PaperConflict WHERE paperId = ? AND contactId = ?", args[0], args[1])
		if err != nil {
			return false, err
		}
		return res.Rows[0][0].I == 0, nil
	})
	script := []string{
		"PRINCTYPE physical_user EXTERNAL",
		"PRINCTYPE contact, review",
		`CREATE TABLE ContactInfo (contactId INT, email VARCHAR(120),
			(email physical_user) SPEAKS FOR (contactId contact))`,
		"CREATE TABLE PaperConflict (paperId INT, contactId INT)",
		`CREATE TABLE PCMember (contactId INT)`,
		`CREATE TABLE PaperReview (
			paperId INT,
			reviewerId INT ENC FOR (paperId review),
			commentsToPC TEXT ENC FOR (paperId review),
			(PCMember.contactId contact) SPEAKS FOR (paperId review) IF NoConflict(paperId, contactId))`,
	}
	for _, q := range script {
		mustExec(t, m, q)
	}

	// chair (contact 1) is conflicted with paper 7; reviewer (contact 2)
	// is not.
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('chair@x', 'chairpw')")
	mustExec(t, m, "INSERT INTO ContactInfo (contactId, email) VALUES (1, 'chair@x')")
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('rev@x', 'revpw')")
	mustExec(t, m, "INSERT INTO ContactInfo (contactId, email) VALUES (2, 'rev@x')")
	mustExec(t, m, "INSERT INTO PaperConflict (paperId, contactId) VALUES (7, 1)")
	mustExec(t, m, "INSERT INTO PCMember (contactId) VALUES (1), (2)")
	mustExec(t, m, "INSERT INTO PaperReview (paperId, reviewerId, commentsToPC) VALUES (7, 2, 'weak accept')")

	// Reviewer logged in: can read.
	res := mustExec(t, m, "SELECT commentsToPC FROM PaperReview WHERE paperId = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "weak accept" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Only the conflicted chair logged in: cannot read, even with full
	// server access.
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'rev@x'")
	if _, err := m.Execute("SELECT commentsToPC FROM PaperReview WHERE paperId = 7"); err == nil {
		t.Fatal("conflicted chair decrypted a review")
	}
	// And the reviewer identity stays hidden from the chair too.
	if _, err := m.Execute("SELECT reviewerId FROM PaperReview WHERE paperId = 7"); err == nil {
		t.Fatal("conflicted chair learned reviewer identity")
	}
}

func TestNoPlaintextOnServer(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'alicepw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 1)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 'topsecret-subject', 'topsecret-body')")

	db := m.p.DB()
	for _, tn := range db.TableNames() {
		res, err := db.ExecSQL("SELECT * FROM " + tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if strings.Contains(v.String(), "topsecret") {
					t.Fatalf("plaintext %q visible in server table %s", v.String(), tn)
				}
				if strings.Contains(v.String(), "alicepw") {
					t.Fatalf("password visible in server table %s", tn)
				}
			}
		}
	}
}

func TestPredicateFalseBlocksGrant(t *testing.T) {
	m := newManager(t)
	script := []string{
		"PRINCTYPE physical_user EXTERNAL",
		"PRINCTYPE grp, forum_post",
		`CREATE TABLE users2 (uid INT, uname TEXT, (uname physical_user) SPEAKS FOR (uid grp))`,
		`CREATE TABLE aclgroups (groupid INT, forumid INT, optionid INT,
			(groupid grp) SPEAKS FOR (forumid forum_post) IF optionid = 20)`,
		`CREATE TABLE posts (postid INT, forumid INT, post TEXT ENC FOR (forumid forum_post))`,
	}
	for _, q := range script {
		mustExec(t, m, q)
	}
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('u', 'pw')")
	mustExec(t, m, "INSERT INTO users2 (uid, uname) VALUES (10, 'u')")
	// optionid 14 (name visibility), NOT 20 (post visibility): no grant.
	mustExec(t, m, "INSERT INTO aclgroups (groupid, forumid, optionid) VALUES (10, 99, 14)")

	// The post is encrypted for forum 99's forum_post principal, whose
	// key nothing reachable speaks for — the post becomes unreadable for
	// user u (only option 14 was granted).
	mustExec(t, m, "INSERT INTO posts (postid, forumid, post) VALUES (1, 99, 'hidden post')")
	if _, err := m.Execute("SELECT post FROM posts WHERE postid = 1"); err == nil {
		t.Fatal("user without option 20 read the post")
	}

	// Per §4.2, delegating forum_post:99 after the fact is impossible:
	// nobody's chain reaches its key, so the proxy cannot wrap it.
	if _, err := m.Execute("INSERT INTO aclgroups (groupid, forumid, optionid) VALUES (10, 99, 20)"); err == nil {
		t.Fatal("grant succeeded without access to the delegated principal's key")
	}

	// The ordinary flow: ACL row (option 20) exists before the forum's
	// first post, so the principal is minted at grant time and the post
	// is readable.
	mustExec(t, m, "INSERT INTO aclgroups (groupid, forumid, optionid) VALUES (10, 100, 20)")
	mustExec(t, m, "INSERT INTO posts (postid, forumid, post) VALUES (2, 100, 'visible post')")
	res := mustExec(t, m, "SELECT post FROM posts WHERE postid = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "visible post" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDirectLoginAPI(t *testing.T) {
	m := setupPhpBB(t)
	if err := m.Login("Zoe", "zpw"); err != nil {
		t.Fatal(err)
	}
	users := m.OnlineUsers()
	if len(users) != 1 || users[0] != "Zoe" {
		t.Fatalf("online = %v", users)
	}
	m.Logout("Zoe")
	if len(m.OnlineUsers()) != 0 {
		t.Fatal("logout did not erase key")
	}
}

func TestEncForIntValues(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "PRINCTYPE acct")
	mustExec(t, m, `CREATE TABLE balances (owner INT, amount INT ENC FOR (owner acct),
		('admin' physical_user) SPEAKS FOR (owner acct))`)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('admin', 'adm')")
	mustExec(t, m, "INSERT INTO balances (owner, amount) VALUES (1, 4200)")
	res := mustExec(t, m, "SELECT amount FROM balances WHERE owner = 1")
	if res.Rows[0][0].I != 4200 {
		t.Fatalf("amount = %v", res.Rows[0][0])
	}
}
