"""One SHA-1 for the package's short content hashes (fingerprints, term
and plan-node hashes, corpus file names).  The builtin ``_sha1`` gives
``hashlib.sha1``'s digests without loading OpenSSL (``_hashlib``, some
4 MB of resident memory)."""

try:
    from _sha1 import sha1
except ImportError:  # an interpreter built without it
    from hashlib import sha1

__all__ = ["sha1"]
