"""Loopback chat-completions stub for the replay-remote workload.

Usage: python3 stub.py EXPECTATIONS_JSON TOKEN MODEL MAX_TOKENS

Binds 127.0.0.1 on a free port and prints ``PORT <n>``. It is one thread
with one selector, speaks HTTP/1.1 and keeps connections open until the
client closes them, so a client that reuses connections is served on
them. Each request is checked (bearer token, model, temperature 0,
max_tokens, the instruction line, the candidate lines against the oracle
marks, and a history block of min(cycle, 10) entries) and answered with
the canned answer stored for its ``image_ref``; a request that fails a
check gets HTTP 400. When its standard input closes, the stub prints one
JSON line of counts and service time and exits.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import sys
import time
from collections import Counter

INSTRUCTIONS = (
    "You control the gaze of a humanoid robot. Candidate gaze targets are "
    "listed below, each with a unique integer mark. Decide which single "
    "candidate the robot should look at next. Answer with exactly one line "
    "of the form TARGET: <mark>, using one of the listed marks."
)
PATH = "/v1/chat/completions"
_CANDIDATE = re.compile(r"  \[(\d+)\] (\S+) \(id ([^,]+),")
_HISTORY = re.compile(r"History \(last (\d+) cycles\):")


def check_request(headers, body, expectations, token, model, max_tokens):
    """(image_ref, answer, None) for a valid request, or (image_ref, None, reason)."""
    image_ref = None
    if headers.get("authorization") != f"Bearer {token}":
        return image_ref, None, "bad bearer token"
    try:
        doc = json.loads(body)
        content = doc["messages"][0]["content"]
        prompt = content[0]["text"]
        image_ref = content[1]["image_url"]["url"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return image_ref, None, f"malformed body: {exc!r}"
    if doc.get("model") != model:
        return image_ref, None, f"model {doc.get('model')!r}"
    if doc.get("temperature") != 0 or isinstance(doc.get("temperature"), bool):
        return image_ref, None, f"temperature {doc.get('temperature')!r}"
    if doc.get("max_tokens") != max_tokens:
        return image_ref, None, f"max_tokens {doc.get('max_tokens')!r}"
    want = expectations.get(image_ref)
    if want is None:
        return image_ref, None, f"unknown image_ref {image_ref!r}"
    lines = prompt.split("\n")
    if lines[0] != INSTRUCTIONS:
        return image_ref, None, f"{image_ref}: instruction line differs"
    try:
        start = lines.index("Candidates:") + 1
    except ValueError:
        return image_ref, None, f"{image_ref}: no candidate block"
    found = []
    for line in lines[start:]:
        match = _CANDIDATE.match(line)
        if match is None:
            break
        found.append([int(match.group(1)), match.group(2), match.group(3)])
    if found != want["candidates"]:
        return image_ref, None, f"{image_ref}: candidates {found} != {want['candidates']}"
    history = [i for i, line in enumerate(lines) if line.startswith("History")]
    if want["history"] == 0:
        if history:
            return image_ref, None, f"{image_ref}: history block on the first cycle"
    else:
        header = _HISTORY.fullmatch(lines[history[0]]) if history else None
        entries = 0
        if header is not None:
            for line in lines[history[0] + 1:]:
                if not line.startswith("  "):
                    break
                entries += 1
        if header is None or int(header.group(1)) != want["history"] \
                or entries != want["history"]:
            return image_ref, None, f"{image_ref}: history does not list {want['history']} entries"
    return image_ref, want["answer"], None


def _response(status, payload):
    body = json.dumps(payload).encode("utf-8")
    head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head + body


def serve(expectations, token, model, max_tokens, out=sys.stdout):
    stats = {"connections": 0, "requests": 0, "rejected": 0, "service_s": 0.0,
             "reasons": []}
    served = Counter()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    sel = selectors.DefaultSelector()
    sel.register(listener, selectors.EVENT_READ, "listen")
    sel.register(sys.stdin, selectors.EVENT_READ, "stdin")
    buffers = {}
    print(f"PORT {listener.getsockname()[1]}", file=out, flush=True)
    running = True
    while running:
        for key, _ in sel.select():
            if key.data == "stdin":
                if not sys.stdin.buffer.read1(4096):
                    running = False
                continue
            if key.data == "listen":
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stats["connections"] += 1
                buffers[conn] = b""
                sel.register(conn, selectors.EVENT_READ, "conn")
                continue
            conn = key.fileobj
            try:
                chunk = conn.recv(65536)
            except ConnectionError:
                chunk = b""
            if not chunk:
                sel.unregister(conn)
                conn.close()
                del buffers[conn]
                continue
            buffers[conn] += chunk
            while True:
                data = buffers[conn]
                end = data.find(b"\r\n\r\n")
                if end < 0:
                    break
                head = data[:end].decode("latin-1").split("\r\n")
                headers = {}
                for line in head[1:]:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0"))
                if len(data) < end + 4 + length:
                    break
                body = data[end + 4:end + 4 + length]
                buffers[conn] = data[end + 4 + length:]
                t0 = time.perf_counter()
                stats["requests"] += 1
                method, target = (head[0].split(" ") + ["", ""])[:2]
                if method != "POST" or target != PATH:
                    image_ref, answer, reason = None, None, f"{method} {target}"
                else:
                    image_ref, answer, reason = check_request(
                        headers, body, expectations, token, model, max_tokens)
                if answer is None:
                    stats["rejected"] += 1
                    if len(stats["reasons"]) < 5:
                        stats["reasons"].append(reason)
                    reply = _response("400 Bad Request", {"error": reason})
                else:
                    served[image_ref] += 1
                    reply = _response("200 OK", {"choices": [
                        {"index": 0, "message": {"role": "assistant", "content": answer}}]})
                conn.sendall(reply)
                stats["service_s"] += time.perf_counter() - t0
                if headers.get("connection", "").lower() == "close":
                    sel.unregister(conn)
                    conn.close()
                    del buffers[conn]
                    break
    for conn in buffers:
        conn.close()
    listener.close()
    # How many image_refs were served how many times, e.g. {"3": 2050}.
    stats["served_histogram"] = {str(k): v for k, v in Counter(served.values()).items()}
    print(json.dumps(stats), file=out, flush=True)


if __name__ == "__main__":
    path, token, model, max_tokens = sys.argv[1:5]
    with open(path, encoding="utf-8") as fh:
        expectations = json.load(fh)
    serve(expectations, token, model, int(max_tokens))
